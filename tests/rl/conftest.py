"""Fixtures shared by the three update routines' tests."""

import pytest

from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig
from repro.rl import collect_trajectory


@pytest.fixture()
def sampled_batch(data_graph, data_stats, queries, rng):
    """``make(dropout=..., reward=...)`` → (policy, trajectories).

    The policy is built from the library's default configuration unless
    ``dropout`` says otherwise, left in ``train()`` mode and sampled from
    directly — the situation of a caller who never thinks about modes.
    """

    def make(dropout: float = RLQVOConfig.dropout, reward: float = 1.0):
        config = RLQVOConfig(hidden_dim=16, seed=0, dropout=dropout)
        policy = PolicyNetwork(config)
        assert policy.training
        builder = FeatureBuilder(data_graph, config, data_stats)
        trajectories = []
        for query in queries[:3]:
            trajectory = collect_trajectory(policy, query, builder, rng)
            trajectory.rewards = [reward] * len(trajectory.steps)
            trajectories.append(trajectory)
        return policy, trajectories

    return make
