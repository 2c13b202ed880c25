"""Tests for the actor–critic trainer (the family Sec. III-A rejects)."""

import numpy as np
import pytest

from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig
from repro.errors import TrainingError
from repro.rl import ActorCriticTrainer, collect_trajectory


@pytest.fixture()
def setup(data_graph, data_stats, queries, rng):
    config = RLQVOConfig(hidden_dim=16, seed=0)
    policy = PolicyNetwork(config)
    builder = FeatureBuilder(data_graph, config, data_stats)
    trajectories = []
    for query in queries[:3]:
        trajectory = collect_trajectory(policy, query, builder, rng)
        trajectory.rewards = [2.0] * len(trajectory.steps)
        trajectories.append(trajectory)
    return policy, trajectories


class TestActorCritic:
    def test_update_changes_policy_and_critic(self, setup):
        policy, trajectories = setup
        trainer = ActorCriticTrainer(policy, learning_rate=1e-2)
        before_policy = {k: v.copy() for k, v in policy.state_dict().items()}
        before_critic = trainer.value_head.weight.data.copy()
        stats = trainer.update(trajectories)
        assert stats.num_steps > 0
        after_policy = policy.state_dict()
        assert any(
            not np.allclose(before_policy[k], after_policy[k])
            for k in before_policy
        )
        assert not np.allclose(before_critic, trainer.value_head.weight.data)

    def test_critic_learns_constant_reward(self, setup):
        # With constant rewards the value head should converge toward the
        # reward value, shrinking the critic loss.
        policy, trajectories = setup
        trainer = ActorCriticTrainer(policy, learning_rate=5e-2)
        first = trainer.update(trajectories)
        for _ in range(30):
            last = trainer.update(trajectories)
        assert last.critic_loss < first.critic_loss
        assert abs(last.mean_value - 2.0) < abs(first.mean_value - 2.0)

    def test_missing_rewards_rejected(self, setup):
        policy, trajectories = setup
        trajectories[0].rewards = []
        with pytest.raises(TrainingError):
            ActorCriticTrainer(policy).update(trajectories)

    def test_empty_batch_noop(self, setup):
        policy, _ = setup
        assert ActorCriticTrainer(policy).update([]).num_steps == 0

    def test_invalid_updates_per_batch(self, setup):
        policy, _ = setup
        with pytest.raises(TrainingError):
            ActorCriticTrainer(policy, updates_per_batch=0)


class TestTrainerIntegration:
    def test_rlqvo_trainer_with_actor_critic(self, data_graph, data_stats):
        from repro.core import RLQVOTrainer
        from repro.graphs import generate_query_set

        config = RLQVOConfig(
            algorithm="actor_critic",
            epochs=2,
            hidden_dim=16,
            train_match_limit=300,
            train_time_limit=2.0,
        )
        trainer = RLQVOTrainer(data_graph, config, stats=data_stats)
        assert isinstance(trainer.ppo, ActorCriticTrainer)
        queries = generate_query_set(data_graph, 5, 3, seed=8)
        history = trainer.train(queries)
        assert len(history.epochs) == 2
