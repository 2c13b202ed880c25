"""``collect_trajectory`` as it sampled before the array evaluation.

Each consultation is ``policy.forward``: some 26 ``Tensor`` ops whose
autograd graph is thrown away, entropy and validity read off the
``PolicyOutput``.  ``rl/rollout.py`` now asks
``PolicyNetwork.evaluate`` for bare arrays instead; this is the
independent spelling it must reproduce — the same actions from the same
``rng`` draws, the same ``old_prob`` / ``entropy`` / ``valid`` bits, and
therefore the same trained weights (``tests/rl/test_rollout.py``).

Test-only by design, like ``per_step_oracle.py`` beside it.
"""

from __future__ import annotations

import numpy as np

from repro.nn.gnn import GraphContext
from repro.rl import OrderingEnv
from repro.rl.rollout import Trajectory, TrajectoryStep


def collect_trajectory_tensor(
    policy, query, feature_builder, rng, ctx=None, greedy=False
) -> Trajectory:
    """One ordering episode, every consultation through ``forward``."""
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
