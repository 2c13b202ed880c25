"""Tests for trajectory collection."""

import numpy as np
import pytest
from tensor_sampling_oracle import collect_trajectory_tensor

from repro.core import (
    FeatureBuilder,
    PolicyNetwork,
    RLQVOConfig,
    RLQVOOrderer,
    RLQVOTrainer,
)
from repro.graphs import Graph, check_order, generate_query_set
from repro.rl import collect_trajectory


@pytest.fixture(scope="module")
def setup(data_graph, data_stats):
    config = RLQVOConfig(hidden_dim=16, seed=0)
    policy = PolicyNetwork(config)
    builder = FeatureBuilder(data_graph, config, data_stats)
    return policy, builder


class TestCollectTrajectory:
    def test_order_is_valid_connected_permutation(self, setup, queries, rng):
        policy, builder = setup
        for query in queries:
            trajectory = collect_trajectory(policy, query, builder, rng)
            check_order(query, trajectory.order)
            assert len(trajectory.steps) == query.num_vertices

    def test_old_probs_are_valid_probabilities(self, setup, queries, rng):
        policy, builder = setup
        trajectory = collect_trajectory(policy, queries[0], builder, rng)
        for step in trajectory.steps:
            assert 0.0 < step.old_prob <= 1.0

    def test_singleton_action_spaces_skip_policy(self, setup, rng):
        policy, builder = setup
        # A path: after the first pick at an end, every step is forced
        # until branching; at minimum the last vertex is always forced.
        path = Graph(
            [0, 0, 0, 0],
            [(0, 1), (1, 2), (2, 3)],
        )
        trajectory = collect_trajectory(policy, path, builder, rng)
        forced = [s for s in trajectory.steps if not s.computed]
        assert forced, "a path query must contain forced moves"
        for step in forced:
            assert step.old_prob == 1.0
            assert step.entropy == 0.0
            assert step.valid

    def test_greedy_rollouts_are_deterministic(self, setup, queries):
        # Greedy decisions are the orderer's; it draws nothing.
        orderer = RLQVOOrderer(*setup)
        assert orderer.order(queries[0]) == orderer.order(queries[0])

    def test_sampled_rollouts_vary(self, setup, queries):
        policy, builder = setup
        query = queries[0]
        orders = {
            tuple(
                collect_trajectory(
                    policy, query, builder, np.random.default_rng(seed)
                ).order
            )
            for seed in range(12)
        }
        assert len(orders) > 1

    def test_features_have_correct_shape_and_step_columns(self, setup, queries, rng):
        policy, builder = setup
        query = queries[0]
        n = query.num_vertices
        trajectory = collect_trajectory(policy, query, builder, rng)
        for t, step in enumerate(trajectory.steps):
            assert step.features.shape == (n, 7)
            # Column 6: |V(q)| - t  (remaining count signal)
            assert step.features[0, 5] == n - t
            # Column 7: ordered indicator sums to t
            assert step.features[:, 6].sum() == t

    def test_rewards_start_empty(self, setup, queries, rng):
        policy, builder = setup
        trajectory = collect_trajectory(policy, queries[0], builder, rng)
        assert trajectory.rewards == []

    def test_policy_steps_indexing(self, setup, queries, rng):
        policy, builder = setup
        trajectory = collect_trajectory(policy, queries[0], builder, rng)
        for index, step in trajectory.policy_steps():
            assert trajectory.steps[index] is step
            assert step.computed


class TestAgainstTensorSampling:
    """Sampling on arrays is sampling through ``forward``, bit for bit."""

    @pytest.mark.parametrize("greedy", [False, True])
    @pytest.mark.parametrize(
        "gnn_kind", ["gcn", "gat", "sage", "graphnn", "asap", "mlp"]
    )
    def test_trajectories_are_identical(
        self, data_graph, data_stats, queries, gnn_kind, greedy
    ):
        config = RLQVOConfig(gnn_kind=gnn_kind, hidden_dim=16, seed=4)
        policy = PolicyNetwork(config)
        builder = FeatureBuilder(data_graph, config, data_stats)
        ours, theirs = np.random.default_rng(9), np.random.default_rng(9)
        for query in queries:
            old = collect_trajectory_tensor(
                policy, query, builder, theirs, greedy=greedy
            )
            if greedy:
                # Greedy decisions are the orderer's, not a rollout's.
                assert RLQVOOrderer(policy, builder).order(query) == old.order
                continue
            new = collect_trajectory(policy, query, builder, ours)
            assert new.order == old.order
            for a, b in zip(new.steps, old.steps, strict=True):
                assert np.array_equal(a.features, b.features)
                assert np.array_equal(a.action_mask, b.action_mask)
                assert (a.action, a.old_prob, a.entropy, a.valid, a.computed) == (
                    b.action, b.old_prob, b.entropy, b.valid, b.computed
                )
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_training_ends_on_the_same_weights(
        self, data_graph, data_stats, monkeypatch
    ):
        config = RLQVOConfig(
            epochs=2, hidden_dim=16, train_match_limit=500, train_time_limit=2.0,
            seed=5,
        )
        train_queries = generate_query_set(data_graph, 5, 4, seed=77)

        def run():
            trainer = RLQVOTrainer(data_graph, config, stats=data_stats)
            history = trainer.train(train_queries)
            assert sum(e.num_steps for e in history.epochs) > 0
            return trainer.policy.state_dict(), trainer._rng.bit_generator.state

        weights, rng_state = run()
        sampled = []

        def through_forward(*args):
            sampled.append(collect_trajectory_tensor(*args))
            return sampled[-1]

        monkeypatch.setattr("repro.core.trainer.collect_trajectory", through_forward)
        oracle_weights, oracle_rng_state = run()
        assert len(sampled) == config.epochs * len(train_queries)
        assert weights.keys() == oracle_weights.keys()
        for name, value in weights.items():
            assert np.array_equal(value, oracle_weights[name]), name
        assert rng_state == oracle_rng_state
