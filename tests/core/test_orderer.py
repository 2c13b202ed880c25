"""Tests for the RL-QVO orderer wrapper."""

import gc

import numpy as np
import pytest

from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig, RLQVOOrderer
from repro.errors import ModelError
from repro.graphs import Graph, check_order, erdos_renyi, generate_query_set


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
