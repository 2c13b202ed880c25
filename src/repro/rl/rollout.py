"""Trajectory collection for PPO (the sampling policy π_θ').

One :class:`Trajectory` records everything PPO needs to recompute action
probabilities under the *current* policy: the per-step feature matrices,
action masks, chosen actions and the sampling policy's probabilities.
Validity flags and entropies (step-wise reward inputs) are captured at
collection time from the sampling policy's outputs.

**Mode contract.**  A step's recorded ``old_prob`` and the probability
an update recomputes for it must be the same function of θ, or the
probability ratio is noise before any gradient step.  The policy has one
mode — no layer draws a random mask — so this holds by construction:
samples (and the orderer's decisions) come from
``PolicyNetwork.evaluate``, the array evaluation, which builds no
``Tensor``; PPO's update (:mod:`repro.rl.ppo`) scores steps with
``forward``, which computes the same bits where θ = θ′
(``tests/core/test_array_evaluation.py``).

**One bounded chunk at a time.**  An update does not visit steps one
by one: :func:`stack_steps` turns its trajectories' policy steps into
:class:`StepBatch` arrays once per ``update`` call — grouped by query
size ``n``, since ``PolicyNetwork.forward`` takes a leading step axis but
not ragged vertices, and each group cut into consecutive chunks of at
most :data:`CHUNK_ROWS` rows (steps × ``n``).  A pass scores each chunk
with one ``forward`` and one ``backward`` and drops its graph before the
next, so the memory a pass holds is bounded by the chunk, not the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import TrainingError
from repro.graphs.graph import Graph
from repro.nn.functional import entropy_array
from repro.nn.gnn import GraphContext
from repro.nn.tensor import Tensor
from repro.rl.env import OrderingEnv

#: Rows (steps × query vertices) one :class:`StepBatch` holds at most.  A
#: pass holds one chunk's autograd graph at a time, and each chunk costs
#: about 0.3 ms of per-call overhead.  256 rows keep a pass's traced peak
#: near 2 MiB at every query size; 1,024 / 2,048 / 4,096 rows peak at 7 /
#: 14 / 27 MiB and gain at most about a quarter of the pass time (README,
#: *What the update keeps*, has the sweep).  A constant of the
#: implementation, not a setting: only tests change it.
CHUNK_ROWS = 256

__all__ = [
    "CHUNK_ROWS",
    "TrajectoryStep",
    "Trajectory",
    "StepBatch",
    "collect_trajectory",
    "stack_steps",
]


@dataclass(frozen=True)
class TrajectoryStep:
    """One decision point of an ordering episode."""

    features: np.ndarray
    action_mask: np.ndarray
    action: int
    old_prob: float
    entropy: float
    valid: bool
    #: Whether the policy was actually consulted (False for forced moves
    #: where the action space was a singleton — no gradient flows there).
    computed: bool


@dataclass
class Trajectory:
    """A full ordering episode for one query graph."""

    query: Graph
    ctx: GraphContext
    steps: list[TrajectoryStep] = field(default_factory=list)
    order: list[int] = field(default_factory=list)
    #: Filled by the trainer once the enumeration reward is known.
    rewards: list[float] = field(default_factory=list)

    def policy_steps(self) -> list[tuple[int, TrajectoryStep]]:
        """(episode-step index, step) pairs where the policy acted."""
        return [(i, s) for i, s in enumerate(self.steps) if s.computed]


def collect_trajectory(
    policy,
    query: Graph,
    feature_builder,
    rng: np.random.Generator,
    ctx: GraphContext | None = None,
) -> Trajectory:
    """Roll the policy through one ordering episode.

    ``policy`` is duck-typed (``evaluate(features, ctx, mask) ->
    (probs, scores)`` arrays); singleton action spaces are taken without
    consulting it, as the paper prescribes (Sec. III-D, "directly selects
    the only candidate").
    """
    ctx = ctx if ctx is not None else GraphContext.from_graph(query)
    env = OrderingEnv(query)
    state = env.reset()
    static = feature_builder.static_features(query)
    trajectory = Trajectory(query=query, ctx=ctx)

    while not env.done:
        features = feature_builder.step_features(
            query, static, state.step, state.ordered_mask
        )
        actions = state.action_space
        if actions.size == 1:
            action = int(actions[0])
            step = TrajectoryStep(
                features=features,
                action_mask=state.action_mask,
                action=action,
                old_prob=1.0,
                entropy=0.0,
                valid=True,
                computed=False,
            )
        else:
            p, scores = policy.evaluate(features, ctx, state.action_mask)
            action = int(rng.choice(p.size, p=p / p.sum()))
            step = TrajectoryStep(
                features=features,
                action_mask=state.action_mask,
                action=action,
                old_prob=float(p[action]),
                entropy=float(entropy_array(p)),
                # Valid: the unmasked argmax is inside the action space.
                valid=bool(p[int(np.argmax(scores))] > 0.0),
                computed=True,
            )
        trajectory.steps.append(step)
        trajectory.order.append(step.action)
        state = env.step(step.action)
    return trajectory


@dataclass(frozen=True)
class StepBatch:
    """``S`` consecutive policy steps of ``n``-vertex queries, stacked
    along a leading step axis (trajectory order, then step order); ``S``
    is at most ``max(1, CHUNK_ROWS // n)``."""

    features: np.ndarray  # (S, n, FEATURE_DIM)
    ctx: GraphContext  # four (S, n, n) fields: each step's query, repeated
    action_mask: np.ndarray  # (S, n) bool
    chosen: np.ndarray  # (S, n) one-hot of the sampled action
    old_prob: np.ndarray  # (S,)
    weight: np.ndarray  # (S,) the step's decayed reward, normalized if asked

    def chosen_prob(self, probs: Tensor) -> Tensor:
        """``π(a_s | s)`` per step from ``(S, n)`` ``probs``: a one-hot
        multiply-and-sum gathers exactly (the other terms are zeros)."""
        return (probs * self.chosen).sum(axis=-1)


def stack_steps(
    trajectories: list[Trajectory], normalize_weights: bool = False
) -> list[StepBatch]:
    """Stack the policy steps of ``trajectories`` into bounded chunks.

    Steps are grouped by query size (first-seen order), and each group is
    cut into consecutive chunks of at most ``max(1, CHUNK_ROWS // n)``
    steps.  Forced steps (``computed=False``) carry no gradient and are
    left out; no policy step at all gives an empty list.
    ``normalize_weights`` centres and scales the decayed rewards over
    *all* the steps, across sizes (the standard advantage normalization).
    """
    groups: dict[int, list[tuple[GraphContext, float, TrajectoryStep]]] = {}
    for trajectory in trajectories:
        if len(trajectory.rewards) != len(trajectory.steps):
            raise TrainingError(
                "trajectory rewards not attached (trainer must set them)"
            )
        for t, step in trajectory.policy_steps():
            groups.setdefault(len(step.action_mask), []).append(
                (trajectory.ctx, trajectory.rewards[t], step)
            )
    weights = [
        np.array([reward for _, reward, _ in rows]) for rows in groups.values()
    ]
    if normalize_weights and sum(w.size for w in weights) > 1:
        pooled = np.concatenate(weights)
        mean, std = pooled.mean(), pooled.std()
        scale = 1.0 / (std + 1e-8) if std > 1e-8 else 1.0
        weights = [(w - mean) * scale for w in weights]
    batches = []
    for (n, rows), weight in zip(groups.items(), weights):
        size = max(1, CHUNK_ROWS // n)
        for start in range(0, len(rows), size):
            contexts, _, steps = zip(*rows[start : start + size])
            batches.append(
                StepBatch(
                    features=np.stack([step.features for step in steps]),
                    ctx=GraphContext.stack(contexts),
                    action_mask=np.stack([step.action_mask for step in steps]),
                    chosen=np.eye(n)[[step.action for step in steps]],
                    old_prob=np.array([step.old_prob for step in steps]),
                    weight=weight[start : start + size],
                )
            )
    return batches
