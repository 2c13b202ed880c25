"""Differential tests: the engine as shipped vs the recursive oracle.

The explicit-stack engine must preserve the semantics of Algorithm 2's
plain recursion (``tests/recursive_oracle.py``) bit-for-bit: same match
sequences, same ``#enum``, same limit behaviour.  These tests compare
the two on randomly generated query/data pairs at the default frontier
threshold (``test_enumeration_batch.py`` forces it both ways) and pin
the structural property — a path query deeper than the interpreter's
recursion limit enumerates fine iteratively.
"""

import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from recursive_oracle import RecursiveOracle

from repro.graphs import Graph, erdos_renyi, extract_query
from repro.matching import (
    CandidateSets,
    Enumerator,
    GQLFilter,
    RIOrderer,
    intersect_sorted,
)


def _random_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 45))
    m = int(rng.integers(n, 3 * n))
    num_labels = int(rng.integers(1, 4))
    data = erdos_renyi(n, m, num_labels, seed=seed)
    query = extract_query(data, int(rng.integers(2, 7)), rng)
    candidates = GQLFilter().filter(query, data)
    order = RIOrderer().order(query, data, candidates)
    return query, data, candidates, order


def _engines(**kwargs):
    return (
        RecursiveOracle(**kwargs),
        Enumerator(**kwargs),
    )


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_same_matches_and_enum(self, seed):
        query, data, candidates, order = _random_instance(seed)
        recursive, iterative = _engines(match_limit=None, record_matches=True)
        oracle = recursive.run(query, data, candidates, order)
        result = iterative.run(query, data, candidates, order)
        assert result.num_matches == oracle.num_matches
        assert result.num_enumerations == oracle.num_enumerations
        # Both engines visit candidates in ascending vertex order, so the
        # match sequences are identical, not merely equal as sets.
        assert result.matches == oracle.matches
        assert result.complete == oracle.complete

    @pytest.mark.parametrize("seed", range(0, 25, 5))
    def test_same_truncation_under_match_limit(self, seed):
        query, data, candidates, order = _random_instance(seed)
        full = Enumerator(match_limit=None).run(
            query, data, candidates, order
        )
        if full.num_matches < 2:
            pytest.skip("needs at least two matches to truncate")
        limit = max(1, full.num_matches // 2)
        recursive, iterative = _engines(match_limit=limit, record_matches=True)
        oracle = recursive.run(query, data, candidates, order)
        result = iterative.run(query, data, candidates, order)
        assert result.num_matches == oracle.num_matches == limit
        assert result.limit_reached and oracle.limit_reached
        assert result.num_enumerations == oracle.num_enumerations
        assert result.matches == oracle.matches

    @pytest.mark.parametrize("seed", range(0, 25, 5))
    def test_same_results_under_arbitrary_orders(self, seed):
        query, data, candidates, _ = _random_instance(seed)
        rng = np.random.default_rng(seed + 1000)
        for _ in range(3):
            order = [int(u) for u in rng.permutation(query.num_vertices)]
            recursive, iterative = _engines(match_limit=None, record_matches=True)
            oracle = recursive.run(query, data, candidates, order)
            result = iterative.run(query, data, candidates, order)
            assert result.num_matches == oracle.num_matches
            assert result.num_enumerations == oracle.num_enumerations
            assert result.matches == oracle.matches


class TestDeepQueries:
    def _deep_path(self):
        n = 2 * sys.getrecursionlimit()
        labels = list(range(n))
        path = Graph(labels, [(i, i + 1) for i in range(n - 1)])
        candidates = CandidateSets([[i] for i in range(n)])
        return path, candidates, list(range(n))

    def test_iterative_engine_survives_deep_path(self):
        path, candidates, order = self._deep_path()
        result = Enumerator(match_limit=None).run(
            path, path, candidates, order
        )
        assert result.num_matches == 1
        # 1 root step + one extension per query vertex.
        assert result.num_enumerations == path.num_vertices + 1
        assert result.complete


class TestEdgeCases:
    def test_empty_query_records_only_on_request(self):
        empty = Graph([], [])
        data = Graph([0, 0], [(0, 1)])
        counting = Enumerator().run(empty, data, CandidateSets([]), [])
        recording = Enumerator(record_matches=True).run(
            empty, data, CandidateSets([]), []
        )
        assert counting.num_matches == recording.num_matches == 1
        assert counting.matches == ()
        assert recording.matches == ((),)

    def test_unknown_strategy_rejected(self):
        # There is no strategy to name: the parameter itself is gone.
        with pytest.raises(TypeError):
            Enumerator(strategy="compiled")

    def test_default_time_limit_is_paper_cap(self):
        from repro.matching import DEFAULT_TIME_LIMIT

        assert Enumerator().time_limit == DEFAULT_TIME_LIMIT == 500.0

    def test_shared_context_reuses_candidate_space(self):
        from repro.matching import MatchingContext

        query, data, candidates, order = _random_instance(11)
        enumerator = Enumerator(match_limit=None)
        context = MatchingContext(query, data, candidates)
        first = enumerator.run_context(context, order)
        space = context.space
        second = enumerator.run_context(context, order)
        assert context.space is space
        assert first.num_enumerations == second.num_enumerations


def sorted_unique(max_value: int = 200, max_size: int = 60):
    """Strategy: a sorted array of unique int64 ids in [0, max_value)."""
    return st.lists(
        st.integers(0, max_value - 1), max_size=max_size, unique=True
    ).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


class TestIntersectSorted:
    def test_matches_numpy_semantics(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = np.unique(rng.integers(0, 200, size=rng.integers(0, 60)))
            b = np.unique(rng.integers(0, 200, size=rng.integers(0, 60)))
            expected = np.intersect1d(a, b)
            np.testing.assert_array_equal(intersect_sorted(a, b), expected)

    def test_galloping_path(self):
        a = np.array([3, 50, 999], dtype=np.int64)
        b = np.arange(0, 1000, dtype=np.int64)
        np.testing.assert_array_equal(
            intersect_sorted(a, b), np.array([3, 50, 999], dtype=np.int64)
        )
        np.testing.assert_array_equal(
            intersect_sorted(b, a), np.array([3, 50, 999], dtype=np.int64)
        )

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        other = np.array([1, 2], dtype=np.int64)
        assert intersect_sorted(empty, other).size == 0
        assert intersect_sorted(other, empty).size == 0

    @given(sorted_unique(), sorted_unique())
    def test_matches_intersect1d_on_any_sorted_sets(self, a, b):
        np.testing.assert_array_equal(
            intersect_sorted(a, b), np.intersect1d(a, b, assume_unique=True)
        )

    @given(sorted_unique())
    def test_identical_inputs(self, a):
        np.testing.assert_array_equal(intersect_sorted(a, a.copy()), a)

    def test_disjoint_ranges(self):
        low = np.array([0, 1], dtype=np.int64)
        high = np.array([10, 11, 12], dtype=np.int64)
        assert intersect_sorted(low, high).size == 0
        assert intersect_sorted(high, low).size == 0
