"""Edge cases: disconnected and degenerate queries through the full stack.

The paper's workloads are connected by construction, but a robust library
must not corrupt results when handed disconnected queries (Cartesian
products), isolated query vertices, or one-vertex queries.
"""

import networkx as nx
import pytest
from recursive_oracle import RecursiveOracle

from repro.graphs import Graph, erdos_renyi
from repro.matching import (
    Enumerator,
    GQLFilter,
    GQLOrderer,
    LDFFilter,
    QSIOrderer,
    RandomOrderer,
    RIOrderer,
    VEQOrderer,
    VF2PPOrderer,
    verify_all,
)

ALL_ORDERERS = [
    QSIOrderer, RIOrderer, VF2PPOrderer, GQLOrderer, VEQOrderer,
]


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(30, 80, 2, seed=51)


def oracle_count(query: Graph, data: Graph) -> int:
    def to_nx(g):
        out = nx.Graph()
        for v in g.vertices():
            out.add_node(v, label=g.label(v))
        out.add_edges_from(g.edges())
        return out

    matcher = nx.algorithms.isomorphism.GraphMatcher(
        to_nx(data), to_nx(query),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    return sum(1 for _ in matcher.subgraph_monomorphisms_iter())


class TestDisconnectedQueries:
    @pytest.fixture(scope="class")
    def query(self):
        # Edge + isolated vertex: disconnected with an isolated vertex.
        return Graph([0, 1, 0], [(0, 1)])

    @pytest.mark.parametrize("orderer_cls", ALL_ORDERERS)
    def test_orderers_emit_permutations(self, orderer_cls, query, data):
        candidates = GQLFilter().filter(query, data)
        order = orderer_cls().order(query, data, candidates)
        assert sorted(order) == [0, 1, 2]

    def test_match_count_equals_oracle(self, query, data):
        candidates = LDFFilter().filter(query, data)
        for orderer in (RIOrderer(), RandomOrderer(seed=1)):
            order = orderer.order(query, data, candidates)
            result = Enumerator(match_limit=None, record_matches=True).run(
                query, data, candidates, order
            )
            assert result.num_matches == oracle_count(query, data)
            assert verify_all(query, data, result.matches) == []

    def test_candidate_space_handles_disconnection(self, query, data):
        # The production engine always enumerates over the candidate
        # space; the oracle scans raw adjacency.
        candidates = LDFFilter().filter(query, data)
        order = RIOrderer().order(query, data, candidates)
        indexed = Enumerator(match_limit=None).run(query, data, candidates, order)
        plain = RecursiveOracle(match_limit=None).run(
            query, data, candidates, order
        )
        assert plain.num_matches == indexed.num_matches
        assert plain.num_enumerations == indexed.num_enumerations


class TestDegenerateQueries:
    def test_two_components_of_edges(self, data):
        query = Graph([0, 1, 0, 1], [(0, 1), (2, 3)])
        candidates = GQLFilter().filter(query, data)
        order = RIOrderer().order(query, data, candidates)
        result = Enumerator(match_limit=None, record_matches=True).run(
            query, data, candidates, order
        )
        assert result.num_matches == oracle_count(query, data)
        assert verify_all(query, data, result.matches) == []

    def test_all_isolated_vertices(self, data):
        query = Graph([0, 0], [])
        candidates = LDFFilter().filter(query, data)
        order = [0, 1]
        result = Enumerator(match_limit=None).run(query, data, candidates, order)
        n0 = int(data.vertices_with_label(0).size)
        assert result.num_matches == n0 * (n0 - 1)

    def test_single_vertex_rlqvo_path(self, data):
        # The learned orderer must handle |V(q)| = 1 without a forward pass.
        from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig, RLQVOOrderer
        from repro.graphs import GraphStats

        config = RLQVOConfig(hidden_dim=8)
        orderer = RLQVOOrderer(
            PolicyNetwork(config), FeatureBuilder(data, config, GraphStats(data))
        )
        query = Graph([0], [])
        assert orderer.order(query, data) == [0]
