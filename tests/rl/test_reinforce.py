"""Tests for the REINFORCE trainer (Sec. III-H alternative)."""

import numpy as np
import pytest

from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig
from repro.errors import TrainingError
from repro.rl import ReinforceTrainer, collect_trajectory


@pytest.fixture()
def setup(data_graph, data_stats, queries, rng):
    config = RLQVOConfig(hidden_dim=16, seed=0)
    policy = PolicyNetwork(config)
    builder = FeatureBuilder(data_graph, config, data_stats)
    trajectories = []
    for query in queries[:3]:
        trajectory = collect_trajectory(policy, query, builder, rng)
        trajectory.rewards = [1.0] * len(trajectory.steps)
        trajectories.append(trajectory)
    return policy, trajectories


def taken_logprob_sum(policy, trajectories) -> float:
    total = 0.0
    for trajectory in trajectories:
        for _, step in trajectory.policy_steps():
            probs, _ = policy.evaluate(step.features, trajectory.ctx, step.action_mask)
            total += float(np.log(max(probs[step.action], 1e-12)))
    return total


class TestReinforce:
    def test_positive_rewards_increase_logprob_of_taken_actions(self, setup):
        policy, trajectories = setup
        before = taken_logprob_sum(policy, trajectories)
        ReinforceTrainer(policy, learning_rate=1e-3).update(trajectories)
        assert taken_logprob_sum(policy, trajectories) > before

    def test_negative_rewards_decrease_logprob(self, setup):
        policy, trajectories = setup
        for trajectory in trajectories:
            trajectory.rewards = [-1.0] * len(trajectory.steps)
        before = taken_logprob_sum(policy, trajectories)
        ReinforceTrainer(policy, learning_rate=1e-3).update(trajectories)
        assert taken_logprob_sum(policy, trajectories) < before

    def test_stats_shape(self, setup):
        policy, trajectories = setup
        stats = ReinforceTrainer(policy).update(trajectories)
        assert stats.num_steps > 0
        assert stats.mean_logprob < 0  # log of probabilities

    def test_missing_rewards_rejected(self, setup):
        policy, trajectories = setup
        trajectories[0].rewards = []
        with pytest.raises(TrainingError):
            ReinforceTrainer(policy).update(trajectories)

    def test_empty_batch_noop(self, setup):
        policy, _ = setup
        assert ReinforceTrainer(policy).update([]).num_steps == 0

    def test_invalid_updates_per_batch(self, setup):
        policy, _ = setup
        with pytest.raises(TrainingError):
            ReinforceTrainer(policy, updates_per_batch=0)


class TestTrainerIntegration:
    def test_rlqvo_trainer_with_reinforce_algorithm(self, data_graph, data_stats):
        from repro.core import RLQVOTrainer
        from repro.graphs import generate_query_set

        config = RLQVOConfig(
            algorithm="reinforce",
            epochs=2,
            hidden_dim=16,
            train_match_limit=300,
            train_time_limit=2.0,
        )
        trainer = RLQVOTrainer(data_graph, config, stats=data_stats)
        assert isinstance(trainer.ppo, ReinforceTrainer)
        queries = generate_query_set(data_graph, 5, 3, seed=8)
        history = trainer.train(queries)
        assert len(history.epochs) == 2

    def test_unknown_algorithm_rejected(self):
        from repro.errors import ModelError

        with pytest.raises(ModelError):
            RLQVOConfig(algorithm="q-learning")
