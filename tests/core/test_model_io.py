"""Tests for model persistence (save_model / load_model)."""

import numpy as np
import pytest

from repro.core import PolicyNetwork, RLQVOConfig, load_model, save_model
from repro.errors import ModelError
from repro.graphs import erdos_renyi
from repro.nn import GraphContext


@pytest.fixture()
def sample_inputs():
    query = erdos_renyi(6, 9, 2, seed=8)
    ctx = GraphContext.from_graph(query)
    features = np.random.default_rng(3).normal(size=(6, 7))
    mask = np.ones(6, dtype=bool)
    return ctx, features, mask


class TestSaveLoad:
    def test_roundtrip_preserves_outputs(self, tmp_path, sample_inputs):
        ctx, features, mask = sample_inputs
        config = RLQVOConfig(hidden_dim=8, gnn_kind="gat", num_gnn_layers=3)
        policy = PolicyNetwork(config).eval()
        save_model(policy, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.config == config
        a = policy.forward(features, ctx, mask).probs.data
        b = loaded.forward(features, ctx, mask).probs.data
        assert np.allclose(a, b)

    def test_loaded_model_in_eval_mode(self, tmp_path):
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=8))
        save_model(policy, tmp_path / "m")
        assert not load_model(tmp_path / "m").training

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            load_model(tmp_path / "nowhere")

    def test_partial_save_rejected(self, tmp_path):
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=8))
        save_model(policy, tmp_path / "m")
        (tmp_path / "m" / "config.json").unlink()
        with pytest.raises(ModelError):
            load_model(tmp_path / "m")

    def test_reward_config_round_trips(self, tmp_path):
        from repro.rl import RewardConfig

        config = RLQVOConfig(
            hidden_dim=8, reward=RewardConfig(beta_val=0.9, gamma=0.8)
        )
        save_model(PolicyNetwork(config), tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        assert loaded.config.reward.beta_val == 0.9
        assert loaded.config.reward.gamma == 0.8

    def test_checkpoint_naming_a_retired_engine_still_loads(self, tmp_path):
        # Saved by `repro-train --enum-strategy vectorized` when that
        # existed; the field never described the policy.
        import json

        save_model(PolicyNetwork(RLQVOConfig(hidden_dim=8)), tmp_path / "m")
        path = tmp_path / "m" / "config.json"
        path.write_text(
            json.dumps(dict(json.loads(path.read_text()), enum_strategy="vectorized"))
        )
        assert load_model(tmp_path / "m").config.hidden_dim == 8
