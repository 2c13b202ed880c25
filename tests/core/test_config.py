"""Tests for RLQVOConfig defaults and validation."""

import pytest

from repro.core import RLQVOConfig
from repro.errors import ModelError
from repro.rl import RewardConfig


class TestDefaults:
    def test_paper_defaults(self):
        config = RLQVOConfig()
        assert config.gnn_kind == "gcn"
        assert config.num_gnn_layers == 2
        assert config.hidden_dim == 64
        assert config.learning_rate == pytest.approx(1e-3)
        assert config.epochs == 100
        assert config.incremental_epochs == 10
        assert config.train_match_limit == 100_000
        assert config.train_time_limit == 500.0

    def test_frozen(self):
        with pytest.raises(Exception):
            RLQVOConfig().hidden_dim = 128


class TestValidation:
    def test_layer_count(self):
        with pytest.raises(ModelError):
            RLQVOConfig(num_gnn_layers=0)

    def test_hidden_dim(self):
        with pytest.raises(ModelError):
            RLQVOConfig(hidden_dim=0)

    def test_feature_mode(self):
        with pytest.raises(ModelError):
            RLQVOConfig(feature_mode="learned")

    def test_clip_epsilon(self):
        with pytest.raises(ModelError):
            RLQVOConfig(clip_epsilon=1.5)

    def test_negative_epochs(self):
        with pytest.raises(ModelError):
            RLQVOConfig(epochs=-1)

    @pytest.mark.parametrize("algorithm", ["ppo", "reinforce", "actor_critic"])
    def test_algorithm_is_not_a_field(self, algorithm):
        # PPO is the one updater; no value of the retired knob is accepted.
        with pytest.raises(TypeError, match="algorithm"):
            RLQVOConfig(algorithm=algorithm)


class TestEffectiveReward:
    def test_default_keeps_betas(self):
        config = RLQVOConfig(reward=RewardConfig(beta_val=0.7, beta_h=0.3))
        effective = config.effective_reward()
        assert effective.beta_val == 0.7
        assert effective.beta_h == 0.3

    def test_noent_zeroes_entropy(self):
        config = RLQVOConfig(use_entropy_reward=False)
        assert config.effective_reward().beta_h == 0.0
        assert config.effective_reward().beta_val > 0.0

    def test_noval_zeroes_validity(self):
        config = RLQVOConfig(use_validity_reward=False)
        assert config.effective_reward().beta_val == 0.0
        assert config.effective_reward().beta_h > 0.0
