"""Tests for the CECI/DP-iso-style candidate space index.

The one-pass build is held to ``tests/candidate_space_oracle.py``, the
per-direction build it replaced: every ``edge_flat`` triple equal in
values and dtype, every array read-only, the same ``memory_bytes()``.
"""

import numpy as np
import pytest
from candidate_space_oracle import CandidateSpaceOracle
from hypothesis import given, settings
from hypothesis import strategies as st
from recursive_oracle import RecursiveOracle

from repro.datasets import load_dataset, query_workload
from repro.errors import FilterError
from repro.graphs import Graph, erdos_renyi, extract_query
from repro.matching import (
    CandidateSets,
    CandidateSpace,
    Enumerator,
    GQLFilter,
    LDFFilter,
    RIOrderer,
)


def assert_same_as_oracle(query, data, candidates):
    got = CandidateSpace(query, data, candidates)
    want = CandidateSpaceOracle(query, data, candidates)
    for u in query.vertices():
        for u_prime in query.vertices():
            if query.has_edge(u, u_prime):
                for a, b in zip(got.edge_flat(u, u_prime), want.edge_flat(u, u_prime)):
                    assert a.dtype == b.dtype
                    assert np.array_equal(a, b)
                    assert not a.flags.writeable
            else:
                with pytest.raises(FilterError):
                    got.edge_flat(u, u_prime)
                with pytest.raises(FilterError):
                    got.edge_candidates_array(u, u_prime, 0)
    assert got.memory_bytes() == want.memory_bytes()


@st.composite
def few_label_instances(draw):
    """Two or three labels, a data graph that may be empty or carry
    isolated vertices, and an arbitrary query (a single vertex, isolated
    vertices, several components) — with LDF or GQL candidates, or a
    random subset of them that may leave some ``C(u)`` empty."""
    num_labels = draw(st.integers(2, 3))
    n_data = draw(st.integers(0, 20))
    label = st.integers(0, num_labels - 1)
    data_labels = draw(st.lists(label, min_size=n_data, max_size=n_data))
    pairs = [(u, v) for u in range(n_data) for v in range(u + 1, n_data)]
    data_edges = (
        draw(st.lists(st.sampled_from(pairs), max_size=3 * n_data)) if pairs else []
    )
    n_query = draw(st.integers(1, 6))
    query_labels = draw(st.lists(label, min_size=n_query, max_size=n_query))
    query_pairs = [(u, v) for u in range(n_query) for v in range(u + 1, n_query)]
    query_edges = (
        draw(st.lists(st.sampled_from(query_pairs), max_size=2 * n_query))
        if query_pairs
        else []
    )
    query, data = Graph(query_labels, query_edges), Graph(data_labels, data_edges)
    candidates = draw(st.sampled_from([LDFFilter(), GQLFilter()])).filter(query, data)
    if draw(st.booleans()):
        candidates = CandidateSets(
            [
                draw(st.lists(st.sampled_from(arr.tolist()), unique=True))
                if arr.size
                else []
                for arr in map(candidates.array, query.vertices())
            ]
        )
    return query, data, candidates


@given(few_label_instances())
@settings(max_examples=200)
def test_equal_to_oracle_on_few_label_instances(instance):
    assert_same_as_oracle(*instance)


def test_equal_to_oracle_on_yeast_q16_pool():
    # The e2e rlqvo_train_order pool: 12 training queries, then the
    # held-out sequence (its first 40 here).
    data = load_dataset("yeast")
    pool = query_workload("yeast", 16, count=52, seed=0, data=data).all_queries
    for query in pool:
        assert_same_as_oracle(query, data, GQLFilter().filter(query, data))


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
