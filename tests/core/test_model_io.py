"""Tests for model persistence (save_model / load_model)."""

import json

import numpy as np
import pytest

from repro.core import (
    FeatureBuilder,
    PolicyNetwork,
    RLQVOConfig,
    RLQVOOrderer,
    load_model,
    save_model,
)
from repro.errors import ModelError
from repro.graphs import GraphStats, erdos_renyi, generate_query_set
from repro.nn import GraphContext
from repro.service import CatalogEntry, MatchRequest, MatchService


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
        policy = PolicyNetwork(config)
        save_model(policy, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        assert loaded.config == config
        a = policy.forward(features, ctx, mask).probs.data
        b = loaded.forward(features, ctx, mask).probs.data
        assert np.allclose(a, b)

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
        save_model(PolicyNetwork(RLQVOConfig(hidden_dim=8)), tmp_path / "m")
        path = tmp_path / "m" / "config.json"
        path.write_text(
            json.dumps(dict(json.loads(path.read_text()), enum_strategy="vectorized"))
        )
        assert load_model(tmp_path / "m").config.hidden_dim == 8

    @pytest.mark.parametrize("algorithm", ["ppo", "reinforce", "actor_critic"])
    def test_checkpoint_naming_any_updater_still_loads(self, tmp_path, algorithm):
        # Every config.json saved while the knob existed names an updater
        # ("ppo" unless `repro-train --algorithm` chose another); none of
        # them describes the policy.
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=8))
        save_model(policy, tmp_path / "m")
        path = tmp_path / "m" / "config.json"
        path.write_text(
            json.dumps(dict(json.loads(path.read_text()), algorithm=algorithm))
        )
        loaded = load_model(tmp_path / "m")
        assert loaded.config == policy.config
        saved, restored = policy.state_dict(), loaded.state_dict()
        assert all(np.array_equal(saved[k], restored[k]) for k in saved)

    def test_state_dict_keys_are_the_saved_format(self):
        # Checkpoints written before the dropout layer went load into
        # today's network only if the parameter names did not move.
        assert sorted(PolicyNetwork(RLQVOConfig()).state_dict()) == [
            "encoder0.linear.bias", "encoder0.linear.weight",
            "encoder1.linear.bias", "encoder1.linear.weight",
            "head1.bias", "head1.weight", "head2.bias", "head2.weight",
        ]

    @pytest.mark.parametrize(
        "gnn_kind", ["gcn", "gat", "sage", "graphnn", "asap", "mlp"]
    )
    def test_older_config_with_retired_keys_loads_bit_equal(self, tmp_path, gnn_kind):
        # The config.json an older version wrote carries "dropout",
        # "enum_strategy" and "algorithm"; none configures anything now,
        # whichever encoder the checkpoint holds (or updater trained it).
        data = erdos_renyi(60, 150, 3, seed=4)
        stats = GraphStats(data)
        config = RLQVOConfig(gnn_kind=gnn_kind, hidden_dim=8, seed=3)
        policy = PolicyNetwork(config)
        save_model(policy, tmp_path / "m")
        path = tmp_path / "m" / "config.json"
        raw = json.loads(path.read_text())
        raw.update(dropout=0.2, enum_strategy="iterative", algorithm="reinforce")
        path.write_text(json.dumps(raw, indent=2))

        loaded = load_model(tmp_path / "m")
        assert loaded.config == config
        saved, restored = policy.state_dict(), loaded.state_dict()
        assert saved.keys() == restored.keys()
        for name in saved:
            assert np.array_equal(saved[name], restored[name]), name
        original = RLQVOOrderer(policy, FeatureBuilder(data, config, stats))
        reloaded = RLQVOOrderer(loaded, FeatureBuilder(data, loaded.config, stats))
        for query in generate_query_set(data, 6, 5, seed=2):
            assert reloaded.order(query, data) == original.order(query, data)

    def test_alpha_keys_at_one_load_bit_equal(self, tmp_path):
        # Configs saved while the feature scaling factors were fields
        # carry all three at the paper's 1.0: they load to the same
        # weights and the same orders.
        data = erdos_renyi(60, 150, 3, seed=4)
        stats = GraphStats(data)
        config = RLQVOConfig(hidden_dim=8, seed=3)
        policy = PolicyNetwork(config)
        save_model(policy, tmp_path / "m")
        _edit_config(
            tmp_path / "m",
            lambda raw: json.dumps(
                {**raw, "alpha_degree": 1.0, "alpha_d": 1.0, "alpha_l": 1}
            ),
        )
        loaded = load_model(tmp_path / "m")
        assert loaded.config == config
        saved, restored = policy.state_dict(), loaded.state_dict()
        assert all(np.array_equal(saved[k], restored[k]) for k in saved)
        original = RLQVOOrderer(policy, FeatureBuilder(data, config, stats))
        reloaded = RLQVOOrderer(loaded, FeatureBuilder(data, loaded.config, stats))
        for query in generate_query_set(data, 6, 5, seed=2):
            assert reloaded.order(query, data) == original.order(query, data)

    @pytest.mark.parametrize("key", ["alpha_degree", "alpha_d", "alpha_l"])
    def test_alpha_other_than_one_is_a_model_error(self, tmp_path, key):
        # Weights trained on scaled features expect inputs the code no
        # longer computes: refused, naming the key.
        save_model(PolicyNetwork(RLQVOConfig(hidden_dim=8)), tmp_path / "m")
        _edit_config(tmp_path / "m", lambda raw: json.dumps({**raw, key: 2.0}))
        with pytest.raises(ModelError, match=f"'{key}'"):
            load_model(tmp_path / "m")


def _edit_config(directory, edit) -> None:
    path = directory / "config.json"
    path.write_text(edit(json.loads(path.read_text())))


MALFORMED_CONFIGS = {
    "unknown key": (lambda raw: json.dumps({**raw, "momentum": 0.9}), "momentum"),
    "missing reward": (
        lambda raw: json.dumps({k: v for k, v in raw.items() if k != "reward"}),
        "reward",
    ),
    "invalid json": (lambda raw: json.dumps(raw)[:-2], "config.json"),
    "reward out of range": (
        lambda raw: json.dumps({**raw, "reward": {**raw["reward"], "gamma": 1.5}}),
        "reward",
    ),
    "not an object": (lambda raw: json.dumps([raw]), "object"),
}


class TestMalformedConfig:
    """Every way a saved ``config.json`` can be malformed is a
    ``ModelError`` naming the file and the key — a ``ReproError`` the
    serving layer reports as ``validation``, not as ``internal``."""

    @pytest.mark.parametrize("case", MALFORMED_CONFIGS)
    def test_raises_model_error_naming_file_and_key(self, tmp_path, case):
        edit, named = MALFORMED_CONFIGS[case]
        save_model(PolicyNetwork(RLQVOConfig(hidden_dim=8)), tmp_path / "m")
        _edit_config(tmp_path / "m", edit)
        with pytest.raises(ModelError) as caught:
            load_model(tmp_path / "m")
        assert str(tmp_path / "m" / "config.json") in str(caught.value)
        assert named in str(caught.value)

    def test_unreadable_weights_raise_model_error(self, tmp_path):
        save_model(PolicyNetwork(RLQVOConfig(hidden_dim=8)), tmp_path / "m")
        (tmp_path / "m" / "policy.npz").write_bytes(b"not an archive")
        with pytest.raises(ModelError, match="policy.npz"):
            load_model(tmp_path / "m")

    def test_submit_many_captures_it_as_a_validation_error(self, tmp_path):
        data = erdos_renyi(60, 150, 3, seed=4)
        save_model(PolicyNetwork(RLQVOConfig(hidden_dim=8)), tmp_path / "m")
        _edit_config(tmp_path / "m", MALFORMED_CONFIGS["unknown key"][0])
        service = MatchService(catalog={
            "g": CatalogEntry(name="g", data=data, orderer="rlqvo", model=tmp_path / "m"),
        })
        query = generate_query_set(data, 4, 1, seed=0)[0]
        (response,) = service.submit_many([MatchRequest("g", query)])
        assert not response.ok
        assert response.error_code == "validation"
        assert "momentum" in response.error
