"""Property tests for the bulk frontier's batched kernels.

Two layers of pinning:

* each kernel against its numpy reference (concatenation, ``np.isin``,
  the ``~used[vals]`` mask) on hypothesis-generated sorted unique
  arrays — empty, lopsided, identical and overlapping shapes;
* the whole engine against the recursive oracle on fuzzed query/data
  graph pairs — match sequences and ``#enum`` bit-identical, the
  contract every consumer (the facade, the service, reward rollouts)
  relies on.
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
    batch_membership_into,
    batch_unused_into,
    gather_segments_into,
)


def sorted_unique(max_value: int = 200, max_size: int = 60):
    """Strategy: a sorted array of unique int64 ids in [0, max_value)."""
    return st.lists(
        st.integers(0, max_value - 1), max_size=max_size, unique=True
    ).map(lambda xs: np.array(sorted(xs), dtype=np.int64))


class TestGatherSegments:
    @given(st.lists(sorted_unique(), max_size=8))
    def test_concatenates_segments_in_order(self, segments):
        concat = np.concatenate([np.empty(0, dtype=np.int64), *segments])
        lens = np.array([seg.size for seg in segments], dtype=np.int64)
        starts = np.cumsum(lens) - lens
        # Gather the segments back to front, so starts are not monotone.
        starts, lens = starts[::-1].copy(), lens[::-1].copy()
        out = np.empty(max(concat.size, 1), dtype=np.int64)
        total = gather_segments_into(concat, starts, lens, out)
        expected = [v for seg in segments[::-1] for v in seg.tolist()]
        assert out[:total].tolist() == expected


class TestBatchMasks:
    @given(sorted_unique(), sorted_unique(), st.booleans())
    def test_membership_matches_isin(self, vals, reference, accumulate):
        out = np.ones(max(vals.size, 1), dtype=bool)
        out[::2] = False
        before = out[: vals.size].copy()
        batch_membership_into(vals, reference, out, accumulate=accumulate)
        expected = np.isin(vals, reference)
        if accumulate:
            expected &= before
        np.testing.assert_array_equal(out[: vals.size], expected)

    @given(sorted_unique(max_value=100), st.sets(st.integers(0, 99)))
    def test_unused_probe_ands_into_the_mask(self, vals, used_ids):
        used = np.zeros(100, dtype=bool)
        used[list(used_ids)] = True
        out = np.ones(max(vals.size, 1), dtype=bool)
        tmp = np.empty_like(out)
        batch_unused_into(vals, used, out, tmp)
        np.testing.assert_array_equal(out[: vals.size], ~used[vals])


class TestScratchBuffers:
    def test_empty_query(self):
        scratch = ScratchBuffers()
        assert scratch.nbytes() == 0
        assert scratch.peak_nbytes == 0


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
