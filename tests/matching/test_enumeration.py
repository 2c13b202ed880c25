"""Tests for the backtracking enumeration procedure (Algorithm 2)."""

import networkx as nx
import numpy as np
import pytest

from repro import Matcher
from repro.errors import EnumerationError
from repro.graphs import Graph, erdos_renyi, extract_query
from repro.matching import Enumerator, GQLFilter, LDFFilter, RIOrderer


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    for v in g.vertices():
        out.add_node(v, label=g.label(v))
    out.add_edges_from(g.edges())
    return out


def oracle_count(query: Graph, data: Graph) -> int:
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        to_nx(data), to_nx(query),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    return sum(1 for _ in matcher.subgraph_monomorphisms_iter())


@pytest.fixture(scope="module")
def instance():
    data = erdos_renyi(40, 100, 2, seed=17)
    query = extract_query(data, 4, np.random.default_rng(2))
    candidates = GQLFilter().filter(query, data)
    order = RIOrderer().order(query, data, candidates)
    return query, data, candidates, order


class TestCorrectness:
    def test_match_count_equals_oracle(self, instance):
        query, data, candidates, order = instance
        result = Enumerator(match_limit=None).run(query, data, candidates, order)
        assert result.num_matches == oracle_count(query, data)
        assert result.complete

    def test_recorded_matches_are_valid_embeddings(self, instance):
        query, data, candidates, order = instance
        result = Enumerator(match_limit=None, record_matches=True).run(
            query, data, candidates, order
        )
        assert len(result.matches) == result.num_matches
        for match in result.matches:
            # Injective
            assert len(set(match)) == len(match)
            # Label-preserving
            assert all(
                query.label(u) == data.label(match[u]) for u in query.vertices()
            )
            # Edge-preserving (monomorphism)
            assert all(
                data.has_edge(match[u], match[v]) for u, v in query.edges()
            )

    def test_all_matches_distinct(self, instance):
        query, data, candidates, order = instance
        result = Enumerator(match_limit=None, record_matches=True).run(
            query, data, candidates, order
        )
        assert len(set(result.matches)) == len(result.matches)

    def test_order_independence_of_match_set(self, instance):
        query, data, candidates, _ = instance
        from repro.matching.ordering import connected_permutations

        reference = None
        for i, order in enumerate(connected_permutations(query)):
            if i >= 6:
                break
            result = Enumerator(match_limit=None, record_matches=True).run(
                query, data, candidates, order
            )
            matches = frozenset(result.matches)
            if reference is None:
                reference = matches
            else:
                assert matches == reference

    def test_triangle_in_triangle(self):
        tri = Graph([0, 0, 0], [(0, 1), (1, 2), (0, 2)])
        candidates = LDFFilter().filter(tri, tri)
        result = Enumerator(match_limit=None).run(tri, tri, candidates, [0, 1, 2])
        assert result.num_matches == 6  # all automorphisms

    def test_no_match_when_candidates_miss(self):
        query = Graph([0, 1], [(0, 1)])
        data = Graph([0, 0], [(0, 1)])
        candidates = LDFFilter().filter(query, data)
        result = Enumerator().run(query, data, candidates, [0, 1])
        assert result.num_matches == 0


class TestLimits:
    def test_match_limit_truncates(self, instance):
        query, data, candidates, order = instance
        full = Enumerator(match_limit=None).run(query, data, candidates, order)
        limit = max(1, full.num_matches // 2)
        capped = Enumerator(match_limit=limit).run(query, data, candidates, order)
        assert capped.num_matches == limit
        assert capped.limit_reached and not capped.complete
        assert capped.num_enumerations <= full.num_enumerations

    def test_time_limit_fires_on_expensive_instance(self):
        # Unlabeled dense graph: huge search space.
        data = erdos_renyi(80, 1200, 1, seed=3)
        query = extract_query(data, 8, np.random.default_rng(1))
        candidates = LDFFilter().filter(query, data)
        order = RIOrderer().order(query, data, candidates)
        result = Enumerator(
            match_limit=None, time_limit=0.05, check_every=64
        ).run(query, data, candidates, order)
        assert result.timed_out
        assert result.elapsed < 2.0

    def test_invalid_limits_rejected(self):
        with pytest.raises(EnumerationError):
            Enumerator(match_limit=0)
        with pytest.raises(EnumerationError):
            Enumerator(time_limit=-1.0)

    @pytest.mark.parametrize("check_every", [0, -1, 2.5, 64.0, True, "64", None])
    def test_invalid_check_every_rejected(self, check_every):
        # Only a positive int is a cadence: nothing is clamped or
        # truncated into one, on the engine or through the facade.
        with pytest.raises(EnumerationError):
            Enumerator(check_every=check_every)
        with pytest.raises(EnumerationError):
            Matcher(Graph([0], []), check_every=check_every)


class TestEdgeCases:
    def test_enum_counts_recursive_calls(self):
        # Single-vertex query: root call + one call per candidate match.
        query = Graph([0], [])
        data = Graph([0, 0, 1], [(0, 1), (1, 2)])
        candidates = LDFFilter().filter(query, data)
        result = Enumerator(match_limit=None).run(query, data, candidates, [0])
        assert result.num_matches == 2
        assert result.num_enumerations == 3  # 1 root + 2 leaves

    def test_disconnected_query_cartesian_product(self):
        query = Graph([0, 0], [])  # two independent vertices
        data = Graph([0, 0, 0], [(0, 1), (1, 2)])
        candidates = LDFFilter().filter(query, data)
        result = Enumerator(match_limit=None).run(query, data, candidates, [0, 1])
        assert result.num_matches == 6  # 3 * 2 injective assignments

    def test_wrong_candidate_arity_rejected(self, instance):
        query, data, candidates, order = instance
        from repro.matching import CandidateSets

        bad = CandidateSets([[0]])
        with pytest.raises(EnumerationError):
            Enumerator().run(query, data, bad, order)

    def test_non_permutation_order_rejected(self, instance):
        query, data, candidates, _ = instance
        from repro.errors import InvalidOrderError

        with pytest.raises(InvalidOrderError):
            Enumerator().run(query, data, candidates, [0, 0, 1, 2])
