"""Tests for the policy network (Eq. 4)."""

import numpy as np
import pytest

from repro.core import FEATURE_DIM, PolicyNetwork, RLQVOConfig
from repro.errors import ModelError
from repro.graphs import erdos_renyi
from repro.nn import GraphContext


@pytest.fixture(scope="module")
def query_ctx():
    query = erdos_renyi(8, 14, 2, seed=4)
    return query, GraphContext.from_graph(query)


def features_for(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, FEATURE_DIM))


class TestForward:
    def test_masked_distribution(self, query_ctx):
        query, ctx = query_ctx
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=16))
        mask = np.array([True, True, False, False, True, False, False, False])
        out = policy.forward(features_for(8), ctx, mask)
        p = out.probs.data
        assert p.shape == (8,)
        assert p.sum() == pytest.approx(1.0)
        assert (p[~mask] == 0).all()
        assert out.scores.shape == (8,)

    def test_entropy_nonnegative_and_bounded(self, query_ctx):
        _, ctx = query_ctx
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=16))
        mask = np.ones(8, dtype=bool)
        out = policy.forward(features_for(8), ctx, mask)
        assert 0.0 <= float(out.entropy.data) <= np.log(8) + 1e-9

    def test_is_valid_semantics(self, query_ctx):
        _, ctx = query_ctx
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=16))
        full_mask = np.ones(8, dtype=bool)
        out = policy.forward(features_for(8), ctx, full_mask)
        assert out.is_valid  # full action space: argmax always inside
        argmax = int(np.argmax(out.scores.data))
        mask = np.ones(8, dtype=bool)
        mask[argmax] = False
        out2 = policy.forward(features_for(8), ctx, mask)
        assert not out2.is_valid

    def test_empty_action_space_rejected(self, query_ctx):
        _, ctx = query_ctx
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=16))
        with pytest.raises(ModelError):
            policy.forward(features_for(8), ctx, np.zeros(8, dtype=bool))

    def test_wrong_feature_width_rejected(self, query_ctx):
        _, ctx = query_ctx
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=16))
        with pytest.raises(ModelError):
            policy.forward(np.zeros((8, 3)), ctx, np.ones(8, dtype=bool))


class TestVariants:
    @pytest.mark.parametrize("kind", ["gcn", "gat", "sage", "graphnn", "asap", "mlp"])
    def test_all_encoder_kinds_run(self, kind, query_ctx):
        _, ctx = query_ctx
        policy = PolicyNetwork(
            RLQVOConfig(gnn_kind=kind, hidden_dim=8, num_gnn_layers=2)
        )
        out = policy.forward(features_for(8), ctx, np.ones(8, dtype=bool))
        assert out.probs.data.sum() == pytest.approx(1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ModelError):
            PolicyNetwork(RLQVOConfig(gnn_kind="transformer"))

    def test_layer_count_respected(self):
        policy = PolicyNetwork(RLQVOConfig(num_gnn_layers=3, hidden_dim=8))
        assert len(policy._encoder_layers) == 3

    def test_mlp_variant_ignores_structure(self, query_ctx):
        # With identical per-vertex features, an MLP policy must emit a
        # uniform distribution regardless of the graph structure.
        _, ctx = query_ctx
        policy = PolicyNetwork(RLQVOConfig(gnn_kind="mlp", hidden_dim=8))
        same = np.tile(np.arange(FEATURE_DIM, dtype=float), (8, 1))
        out = policy.forward(same, ctx, np.ones(8, dtype=bool))
        assert np.allclose(out.probs.data, 1 / 8)


class TestSelectionAndCloning:
    def test_greedy_selection_takes_argmax(self, query_ctx):
        # The greedy decision is the argmax of ``probs``, and ``probs`` are
        # forward's (bitwise, for every encoder: test_array_evaluation.py).
        _, ctx = query_ctx
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=16))
        mask = np.ones(8, dtype=bool)
        probs, scores = policy.evaluate(features_for(8), ctx, mask)
        out = policy.forward(features_for(8), ctx, mask)
        assert isinstance(probs, np.ndarray) and isinstance(scores, np.ndarray)
        assert int(np.argmax(probs)) == int(np.argmax(out.probs.data))
        assert np.array_equal(probs, out.probs.data)
        assert np.array_equal(scores, out.scores.data)

    def test_sampling_respects_mask(self, query_ctx):
        _, ctx = query_ctx
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=16))
        mask = np.zeros(8, dtype=bool)
        mask[[2, 5]] = True
        probs, _ = policy.evaluate(features_for(8), ctx, mask)
        assert probs.sum() == pytest.approx(1.0)
        assert not probs[~mask].any()
        rng = np.random.default_rng(0)
        actions = set(rng.choice(8, size=20, p=probs / probs.sum()).tolist())
        assert actions <= {2, 5}

    def test_clone_is_independent(self, query_ctx):
        _, ctx = query_ctx
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=8))
        twin = policy.clone()
        mask = np.ones(8, dtype=bool)
        a = policy.forward(features_for(8), ctx, mask).probs.data
        b = twin.forward(features_for(8), ctx, mask).probs.data
        assert np.allclose(a, b)
        # Mutating the twin leaves the original unchanged.
        for p in twin.parameters():
            p.data += 1.0
        c = policy.forward(features_for(8), ctx, mask).probs.data
        assert np.allclose(a, c)

    def test_forward_has_one_mode(self, query_ctx):
        # No layer draws randomness: repeated forwards are the same bits,
        # and the kept train()/eval() no-ops change nothing.
        _, ctx = query_ctx
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=16, seed=1))
        mask = np.ones(8, dtype=bool)
        a = policy.forward(features_for(8), ctx, mask).probs.data
        assert policy.train() is policy and policy.eval() is policy
        b = policy.forward(features_for(8), ctx, mask).probs.data
        assert np.array_equal(a, b)
