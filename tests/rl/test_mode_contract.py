"""The ratio-free update routines score a step the way it was sampled.

PPO's half of the contract (first-pass ratio exactly 1) is pinned in
``test_ppo.py``; REINFORCE and actor–critic have no ratio, so the same
property reads: the update's ``log π(a|s)`` is the log of the probability
``a`` was drawn with.
"""

import numpy as np
import pytest

from repro.rl import ActorCriticTrainer, ReinforceTrainer


@pytest.mark.parametrize("gnn_kind", ["gcn", "gat", "sage", "graphnn", "asap", "mlp"])
@pytest.mark.parametrize("trainer_cls", [ReinforceTrainer, ActorCriticTrainer])
def test_logprobs_are_scored_as_sampled(sampled_batch, trainer_cls, gnn_kind):
    # A policy on each encoder, sampled from and updated directly.
    policy, trajectories = sampled_batch(gnn_kind=gnn_kind)
    stats = trainer_cls(policy).update(trajectories)
    sampled = [
        np.log(step.old_prob)
        for trajectory in trajectories
        for _, step in trajectory.policy_steps()
    ]
    assert stats.mean_logprob == float(np.mean(sampled))
