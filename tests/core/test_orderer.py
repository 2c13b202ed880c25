"""Tests for the RL-QVO orderer wrapper.

The orderer picks each greedy decision from the raw scores of the action
rows and asks the softmax only on near-ties; ``greedy_order_oracle`` is
the ``argmax(evaluate(...)[0])`` loop it replaced, on action spaces
recomputed from scratch, and the two must give equal orders.
"""

import gc

import numpy as np
import pytest
from greedy_order_oracle import greedy_order
from hypothesis import given
from hypothesis import strategies as st

from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig, RLQVOOrderer
from repro.core import policy as policy_module
from repro.core.orderer import TIE_TOLERANCE
from repro.errors import ModelError
from repro.graphs import Graph, check_order, erdos_renyi, generate_query_set
from repro.graphs.canonical import relabel_graph
from repro.nn.functional import masked_softmax_array
from repro.nn.gnn import GraphContext

ENCODERS = ["gcn", "gat", "sage", "graphnn", "asap", "mlp"]


@pytest.fixture(scope="module")
def orderer_setup(data_graph, data_stats):
    config = RLQVOConfig(hidden_dim=16, seed=0)
    policy = PolicyNetwork(config)
    builder = FeatureBuilder(data_graph, config, data_stats)
    return RLQVOOrderer(policy, builder), data_graph


class TestRLQVOOrderer:
    def test_produces_valid_connected_orders(self, orderer_setup, queries):
        orderer, data = orderer_setup
        for query in queries:
            order = orderer.order(query, data)
            check_order(query, order)

    def test_greedy_is_deterministic(self, orderer_setup, queries):
        orderer, data = orderer_setup
        a = orderer.order(queries[0], data)
        b = orderer.order(queries[0], data)
        assert a == b

    def test_transient_queries_are_ordered_on_their_own_content(
        self, data_graph, data_stats
    ):
        # A serving process orders queries that are freed right after:
        # CPython hands their addresses to later queries, so anything
        # remembered under id(query) would order one request with
        # another's context (ROADMAP D(vi)).
        config = RLQVOConfig(hidden_dim=16, seed=0)
        policy = PolicyNetwork(config)
        builder = FeatureBuilder(data_graph, config, data_stats)
        shared = RLQVOOrderer(policy, builder)
        for seed in range(300):
            query = generate_query_set(data_graph, 8, 1, seed=seed)[0]
            expected = RLQVOOrderer(policy, builder).order(
                Graph(query.labels, query.edges())
            )
            assert shared.order(query) == expected
            del query
        gc.collect()
        retained = [
            value for holder in (shared, builder)
            for value in vars(holder).values()
            if isinstance(value, (dict, list, set))
        ]
        assert retained == []

    def test_ordering_builds_no_tensor(self, orderer_setup, queries, monkeypatch):
        # A count, not a clock: the orderer and the training rollout
        # consult the policy on bare arrays (PolicyNetwork.evaluate), so
        # nothing of the autograd is built.
        from repro.nn.tensor import Tensor
        from repro.rl import collect_trajectory

        built = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        Tensor(0.0)
        assert built == [1]  # the counter is live
        orderer, data = orderer_setup
        rng = np.random.default_rng(0)
        for query in queries:
            orderer.order(query, data)
            collect_trajectory(orderer.policy, query, orderer.feature_builder, rng)
        assert built == [1]

    def test_wrong_data_graph_rejected(self, orderer_setup):
        orderer, _ = orderer_setup
        other = erdos_renyi(10, 15, 2, seed=0)
        query = Graph([0, 0], [(0, 1)])
        with pytest.raises(ModelError):
            orderer.order(query, other)

    def test_data_argument_optional(self, orderer_setup, queries):
        orderer, data = orderer_setup
        assert orderer.order(queries[0]) == orderer.order(queries[0], data)

    def test_path_query_mostly_forced(self, orderer_setup):
        # On a path the only policy decisions are the start and direction;
        # the result must still be connected.
        orderer, data = orderer_setup
        lab = int(data.labels[0])
        path = Graph([lab] * 5, [(i, i + 1) for i in range(4)])
        order = orderer.order(path, data)
        check_order(path, order)

    def test_name_for_registry(self, orderer_setup):
        orderer, _ = orderer_setup
        assert orderer.name == "rlqvo"


@pytest.fixture(
    scope="module",
    params=[(kind, layers) for kind in ENCODERS for layers in (1, 2, 3)],
    ids=lambda p: f"{p[0]}-{p[1]}",
)
def encoder_setup(request, data_graph, data_stats):
    kind, layers = request.param
    config = RLQVOConfig(
        gnn_kind=kind, num_gnn_layers=layers, hidden_dim=16, seed=layers
    )
    policy = PolicyNetwork(config)
    builder = FeatureBuilder(data_graph, config, data_stats)
    return RLQVOOrderer(policy, builder)


@pytest.fixture(scope="module")
def oracle_queries(data_graph, queries):
    """The 6-vertex fixture queries plus larger ones (more decisions)."""
    return [*queries, *generate_query_set(data_graph, 12, 4, seed=5)]


def near_tie(scores: np.ndarray) -> bool:
    """Whether a decision's action-row scores leave the raw pick to the
    softmax: a runner-up within the tolerance, or a non-finite top."""
    top = scores.max()
    if not np.isfinite(top):
        return True
    return np.count_nonzero(scores >= top - TIE_TOLERANCE * (1 + abs(top))) > 1


class TestGreedyOracle:
    def test_equal_to_the_oracle(self, encoder_setup, oracle_queries):
        orderer = encoder_setup
        for query in oracle_queries:
            assert orderer.order(query) == greedy_order(
                orderer.policy, orderer.feature_builder, query
            )

    @given(data=st.data())
    def test_equal_to_the_oracle_under_renumberings(
        self, encoder_setup, oracle_queries, data
    ):
        orderer = encoder_setup
        query = data.draw(st.sampled_from(oracle_queries))
        permutation = data.draw(st.permutations(range(query.num_vertices)))
        renumbered = relabel_graph(query, permutation)
        assert orderer.order(renumbered) == greedy_order(
            orderer.policy, orderer.feature_builder, renumbered
        )

    def test_no_softmax_without_near_ties(
        self, orderer_setup, oracle_queries, monkeypatch
    ):
        # A count, not a clock: a decision outside the tie window pays
        # for one scoring and no softmax.
        orderer, _ = orderer_setup
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return masked_softmax_array(*args, **kwargs)

        monkeypatch.setattr(policy_module, "masked_softmax_array", counting)
        clean = 0
        for query in oracle_queries:
            decisions = []
            greedy_order(orderer.policy, orderer.feature_builder, query, decisions)
            ties = sum(near_tie(scores) for scores in decisions)
            del calls[:]
            orderer.order(query)
            assert len(calls) == ties
            clean += ties == 0 and len(decisions) > 1
        assert clean > 0

    def test_merged_softmax_scores_take_the_softmax_pick(
        self, data_graph, data_stats, oracle_queries
    ):
        # Scores 1e-18 apart are distinct doubles, but their softmax
        # rounds to one probability, so the oracle takes the first action
        # row where the raw top score is the last one: only the fallback
        # gives the oracle's pick.
        class MergingScores:
            def context(self, graph):
                return GraphContext()

            def _all(self, n):
                return (np.arange(n) + 1.0) * 1e-18

            def scores(self, features, ctx, rows):
                return self._all(len(features))[rows]

            def evaluate(self, features, ctx, action_mask):
                scores = self._all(len(features))
                return masked_softmax_array(scores, action_mask), scores

        stub = MergingScores()
        probs, scores = stub.evaluate(np.zeros((6, 7)), None, np.ones(6, bool))
        assert np.argmax(probs) == 0 and np.argmax(scores) == 5
        builder = FeatureBuilder(data_graph, RLQVOConfig(), data_stats)
        orderer = RLQVOOrderer(stub, builder)
        for query in oracle_queries:
            order = orderer.order(query)
            assert order == greedy_order(stub, builder, query)
            assert order[0] == 0

    def test_exact_ties_take_the_first_action_row(self, orderer_setup, queries):
        # A zero output layer scores every vertex the same: every
        # decision is a tie, and the softmax's first maximum decides.
        orderer, _ = orderer_setup
        policy = PolicyNetwork(orderer.policy.config)
        policy.head2.weight.data = np.zeros_like(policy.head2.weight.data)
        tied = RLQVOOrderer(policy, orderer.feature_builder)
        for query in queries:
            order = tied.order(query)
            assert order == greedy_order(policy, orderer.feature_builder, query)
            assert order[0] == 0
