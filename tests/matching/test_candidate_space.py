"""Tests for the CECI/DP-iso-style candidate space index."""

import numpy as np
import pytest
from recursive_oracle import RecursiveOracle

from repro.errors import FilterError
from repro.graphs import Graph, erdos_renyi, extract_query
from repro.matching import (
    CandidateSets,
    CandidateSpace,
    Enumerator,
    GQLFilter,
    RIOrderer,
)


@pytest.fixture(scope="module")
def instance():
    data = erdos_renyi(50, 130, 2, seed=41)
    query = extract_query(data, 5, np.random.default_rng(2))
    candidates = GQLFilter().filter(query, data)
    return query, data, candidates


class TestCandidateSpace:
    def test_edge_candidates_subset_semantics(self, instance):
        query, data, candidates = instance
        cs = CandidateSpace(query, data, candidates)
        for u, u_prime in query.edges():
            for v in candidates.get(u):
                adjacent = cs.edge_candidates_array(u, u_prime, v).tolist()
                assert adjacent == sorted(adjacent)
                assert set(adjacent) <= candidates.get(u_prime)
                for w in adjacent:
                    assert data.has_edge(v, w)
                # Completeness of the index within candidate sets:
                expected = {
                    int(w)
                    for w in data.neighbors(v)
                    if int(w) in candidates.get(u_prime)
                }
                assert set(adjacent) == expected

    def test_non_query_edge_rejected(self, instance):
        query, data, candidates = instance
        cs = CandidateSpace(query, data, candidates)
        non_edges = [
            (a, b)
            for a in query.vertices()
            for b in query.vertices()
            if a != b and not query.has_edge(a, b)
        ]
        if non_edges:
            with pytest.raises(FilterError):
                cs.edge_candidates_array(*non_edges[0], 0)
            with pytest.raises(FilterError):
                cs.edge_flat(*non_edges[0])

    def test_arity_mismatch_rejected(self, instance):
        query, data, _ = instance
        with pytest.raises(FilterError):
            CandidateSpace(query, data, CandidateSets([[0]]))

    def test_memory_bytes_positive(self, instance):
        query, data, candidates = instance
        cs = CandidateSpace(query, data, candidates)
        assert cs.memory_bytes() > 0


class TestEnumeratorIntegration:
    def test_same_matches_and_enum_count(self, instance):
        query, data, candidates = instance
        order = RIOrderer().order(query, data, candidates)
        # Space-indexed production engine vs the oracle's raw adjacency
        # scans: same sequence, same #enum.
        plain = RecursiveOracle(match_limit=None, record_matches=True).run(
            query, data, candidates, order
        )
        indexed = Enumerator(match_limit=None, record_matches=True).run(
            query, data, candidates, order
        )
        assert plain.matches == indexed.matches
        assert plain.num_enumerations == indexed.num_enumerations

    def test_limits_still_honoured(self, instance):
        query, data, candidates = instance
        order = RIOrderer().order(query, data, candidates)
        full = Enumerator(match_limit=None).run(query, data, candidates, order)
        if full.num_matches >= 2:
            capped = Enumerator(match_limit=full.num_matches // 2).run(
                query, data, candidates, order
            )
            assert capped.limit_reached

    def test_triangle_automorphisms(self):
        tri = Graph([0, 0, 0], [(0, 1), (1, 2), (0, 2)])
        from repro.matching import LDFFilter

        candidates = LDFFilter().filter(tri, tri)
        result = Enumerator(match_limit=None).run(tri, tri, candidates, [0, 1, 2])
        assert result.num_matches == 6
