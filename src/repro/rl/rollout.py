"""Trajectory collection for PPO (the sampling policy π_θ').

One :class:`Trajectory` records everything PPO needs to recompute action
probabilities under the *current* policy: the per-step feature matrices,
action masks, chosen actions and the sampling policy's probabilities.
Validity flags and entropies (step-wise reward inputs) are captured at
collection time from the sampling policy's outputs.

**Mode contract.**  A step's recorded ``old_prob`` and the probability
an update recomputes for it must be the same function of θ, or the
probability ratio is noise before any gradient step.  Samples are
therefore drawn under :func:`sampling_mode` — evaluation mode, dropout
the identity — and every update routine in this package scores steps
under the same context manager, whatever mode the caller left the
policy in.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.graphs.graph import Graph
from repro.nn.gnn import GraphContext
from repro.nn.tensor import no_grad
from repro.rl.env import OrderingEnv

__all__ = ["TrajectoryStep", "Trajectory", "collect_trajectory", "sampling_mode"]


@contextmanager
def sampling_mode(policy) -> Iterator[None]:
    """Evaluate ``policy`` the way samples are drawn: in evaluation mode.

    The caller's mode is restored on exit; a duck-typed policy without a
    ``training`` flag has no mode to switch.
    """
    was_training = getattr(policy, "training", False)
    if was_training:
        policy.eval()
    try:
        yield
    finally:
        if was_training:
            policy.train()


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
    greedy: bool = False,
) -> Trajectory:
    """Roll the policy through one ordering episode.

    ``policy`` is duck-typed (``forward(features, ctx, mask) ->
    PolicyOutput``); singleton action spaces are taken without a forward
    pass, as the paper prescribes (Sec. III-D, "directly selects the only
    candidate").  The policy is consulted under :func:`sampling_mode`.
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
            with sampling_mode(policy), no_grad():
                out = policy.forward(features, ctx, state.action_mask)
            p = out.probs.data
            if greedy:
                action = int(np.argmax(p))
            else:
                action = int(rng.choice(p.size, p=p / p.sum()))
            step = TrajectoryStep(
                features=features,
                action_mask=state.action_mask,
                action=action,
                old_prob=float(p[action]),
                entropy=float(out.entropy.data),
                valid=out.is_valid,
                computed=True,
            )
        trajectory.steps.append(step)
        trajectory.order.append(step.action)
        state = env.step(step.action)
    return trajectory
