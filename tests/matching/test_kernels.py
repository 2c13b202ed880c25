"""Property tests for the buffered galloping kernels.

Two layers of pinning:

* each kernel against its numpy reference (``np.intersect1d`` and the
  allocating mask expressions it replaced) on hypothesis-generated
  sorted unique arrays — empty, lopsided, identical and overlapping
  shapes, including repeated calls through **one reused buffer** (stale
  bytes from a previous call must never leak into a result);
* the whole kernel-backed iterative engine against the recursive oracle
  on fuzzed query/data graph pairs — match sequences and ``#enum``
  bit-identical, the contract every consumer (the facade, the
  service, reward rollouts) relies on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recursive_oracle import RecursiveOracle

from repro.graphs import erdos_renyi, extract_query
from repro.matching import Enumerator, GQLFilter, RIOrderer
from repro.matching.kernels import (
    ScratchBuffers,
    filter_unused_into,
    intersect_into,
    intersect_unused_into,
)


def sorted_unique(max_value: int = 200, max_size: int = 60):
    """Strategy: a sorted array of unique int64 ids in [0, max_value)."""
    return st.lists(
        st.integers(0, max_value - 1), max_size=max_size, unique=True
    ).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


class TestIntersectInto:
    @given(sorted_unique(), sorted_unique())
    def test_matches_numpy_intersect1d(self, a, b):
        out = np.empty(min(a.size, b.size), dtype=np.int64)
        k = intersect_into(a, b, out)
        np.testing.assert_array_equal(
            out[:k], np.intersect1d(a, b, assume_unique=True)
        )

    @given(sorted_unique())
    def test_identical_inputs(self, a):
        out = np.empty(a.size, dtype=np.int64)
        assert intersect_into(a, a.copy(), out) == a.size
        np.testing.assert_array_equal(out[: a.size], a)

    def test_empty_and_disjoint(self):
        empty = np.empty(0, dtype=np.int64)
        other = np.array([1, 2, 3], dtype=np.int64)
        out = np.empty(8, dtype=np.int64)
        assert intersect_into(empty, other, out) == 0
        assert intersect_into(other, empty, out) == 0
        low = np.array([0, 1], dtype=np.int64)
        high = np.array([10, 11, 12], dtype=np.int64)
        assert intersect_into(low, high, out) == 0
        assert intersect_into(high, low, out) == 0

    def test_lopsided_gallop(self):
        a = np.array([3, 500, 99_999], dtype=np.int64)
        b = np.arange(100_000, dtype=np.int64)
        out = np.empty(3, dtype=np.int64)
        assert intersect_into(a, b, out) == 3
        np.testing.assert_array_equal(out, a)
        # Swapped argument order must not matter.
        assert intersect_into(b, a, out) == 3
        np.testing.assert_array_equal(out, a)

    @given(st.lists(st.tuples(sorted_unique(), sorted_unique()), max_size=8))
    def test_buffer_reuse_across_calls(self, pairs):
        # One shared output buffer and one shared mask, like the DFS:
        # results must be independent of whatever the last call left.
        out = np.empty(60, dtype=np.int64)
        mask = np.empty(60, dtype=bool)
        for a, b in pairs:
            k = intersect_into(a, b, out, mask)
            np.testing.assert_array_equal(
                out[:k], np.intersect1d(a, b, assume_unique=True)
            )


class TestFusedInjectivity:
    @given(sorted_unique(max_value=100), st.sets(st.integers(0, 99)))
    def test_filter_unused_matches_mask_expression(self, arr, used_ids):
        used = np.zeros(100, dtype=bool)
        used[list(used_ids)] = True
        out = np.empty(max(arr.size, 1), dtype=np.int64)
        k = filter_unused_into(arr, used, out)
        np.testing.assert_array_equal(out[:k], arr[~used[arr]])

    @given(
        sorted_unique(max_value=100),
        sorted_unique(max_value=100),
        st.sets(st.integers(0, 99)),
    )
    def test_intersect_unused_matches_composition(self, a, b, used_ids):
        used = np.zeros(100, dtype=bool)
        used[list(used_ids)] = True
        out = np.empty(max(min(a.size, b.size), 1), dtype=np.int64)
        k = intersect_unused_into(a, b, used, out)
        expected = np.intersect1d(a, b, assume_unique=True)
        expected = expected[~used[expected]]
        np.testing.assert_array_equal(out[:k], expected)

    def test_all_used_filters_everything(self):
        arr = np.array([2, 5, 9], dtype=np.int64)
        used = np.ones(10, dtype=bool)
        out = np.empty(3, dtype=np.int64)
        assert filter_unused_into(arr, used, out) == 0
        assert intersect_unused_into(arr, arr.copy(), used, out) == 0


class TestScratchBuffers:
    def test_sizing_and_footprint(self):
        scratch = ScratchBuffers([0, 4, 0, 7])
        assert [buf.size for buf in scratch.cand] == [0, 4, 0, 7]
        assert scratch.tmp_a.size == scratch.tmp_b.size == 7
        assert scratch.mask.size == scratch.mask2.size == 7
        expected = (4 + 7) * 8 + 2 * 7 * 8 + 2 * 7 * 1
        assert scratch.nbytes() == expected

    def test_empty_query(self):
        scratch = ScratchBuffers([])
        assert scratch.cand == []
        assert scratch.tmp_a.size == 0
        assert scratch.nbytes() == 0


class TestKernelEngineBitIdentity:
    """Fuzz: the kernel-backed iterative engine vs the recursive oracle."""

    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(10, 40),
        query_size=st.integers(2, 7),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_and_enum_bit_identical(self, seed, n, query_size):
        rng = np.random.default_rng(seed)
        data = erdos_renyi(n, int(rng.integers(n, 3 * n)), int(rng.integers(1, 4)), seed=seed)
        query = extract_query(data, query_size, rng)
        candidates = GQLFilter().filter(query, data)
        order = RIOrderer().order(query, data, candidates)
        oracle = RecursiveOracle(match_limit=None, record_matches=True).run(
            query, data, candidates, order
        )
        result = Enumerator(
            match_limit=None, record_matches=True
        ).run(query, data, candidates, order)
        assert result.num_matches == oracle.num_matches
        assert result.num_enumerations == oracle.num_enumerations
        assert result.matches == oracle.matches

    @pytest.mark.parametrize("seed", range(5))
    def test_truncation_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        data = erdos_renyi(30, 90, 2, seed=seed)
        query = extract_query(data, 5, rng)
        candidates = GQLFilter().filter(query, data)
        order = RIOrderer().order(query, data, candidates)
        full = Enumerator(match_limit=None).run(
            query, data, candidates, order
        )
        if full.num_matches < 2:
            pytest.skip("needs at least two matches to truncate")
        limit = max(1, full.num_matches // 2)
        oracle = RecursiveOracle(match_limit=limit, record_matches=True).run(
            query, data, candidates, order
        )
        result = Enumerator(
            match_limit=limit, record_matches=True
        ).run(query, data, candidates, order)
        assert result.matches == oracle.matches
        assert result.num_enumerations == oracle.num_enumerations
