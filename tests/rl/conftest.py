"""Fixtures shared by the PPO update's tests."""

import pytest

from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig
from repro.rl import collect_trajectory


@pytest.fixture()
def sampled_batch(data_graph, data_stats, queries, rng):
    """``make(reward=..., gnn_kind=...)`` → (policy, trajectories).

    The policy is built from the library's default configuration, with
    the encoder ``gnn_kind`` names, and sampled from directly.
    """

    def make(reward: float = 1.0, gnn_kind: str = RLQVOConfig.gnn_kind):
        config = RLQVOConfig(gnn_kind=gnn_kind, hidden_dim=16, seed=0)
        policy = PolicyNetwork(config)
        builder = FeatureBuilder(data_graph, config, data_stats)
        trajectories = []
        for query in queries[:3]:
            trajectory = collect_trajectory(policy, query, builder, rng)
            trajectory.rewards = [reward] * len(trajectory.steps)
            trajectories.append(trajectory)
        return policy, trajectories

    return make
