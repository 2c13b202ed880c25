"""Differential tests: the frontier-batched vectorized engine.

The vectorized backend (:mod:`repro.matching.enumeration_batch`) must
preserve the iterative engine's semantics bit-for-bit — same match
sequences, same ``#enum``, same limit behaviour — and the iterative
engine is itself pinned to the recursive oracle, so the three-way
comparison here closes the loop.  The suite also pins the
batch-scratch growth contract: one :class:`ScratchBuffers` per thread,
geometric growth across queries of different sizes (no quadratic
re-allocation), ``peak_scratch_bytes`` monotone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recursive_oracle import RecursiveOracle

from repro import Matcher
from repro.graphs import Graph, erdos_renyi, extract_query
from repro.matching import (
    Enumerator,
    GQLFilter,
    MatchingContext,
    RIOrderer,
    ScratchBuffers,
)

ENGINES = ("recursive", "iterative", "vectorized")


def _random_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 40))
    m = int(rng.integers(n, 3 * n))
    num_labels = int(rng.integers(1, 4))
    data = erdos_renyi(n, m, num_labels, seed=seed)
    query = extract_query(data, int(rng.integers(2, 8)), rng)
    candidates = GQLFilter().filter(query, data)
    order = RIOrderer().order(query, data, candidates)
    return query, data, candidates, order


def _engine(strategy: str, **kwargs):
    """The named production engine, or the test-only recursive oracle."""
    if strategy == "recursive":
        return RecursiveOracle(**kwargs)
    return Enumerator(strategy=strategy, **kwargs)


def _run(strategy: str, instance, **kwargs):
    query, data, candidates, order = instance
    kwargs.setdefault("match_limit", None)
    kwargs.setdefault("record_matches", True)
    return _engine(strategy, **kwargs).run(query, data, candidates, order)


# ----------------------------------------------------------------------
# Three-way bit-identity
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_three_way_bit_identity_find_all(seed):
    instance = _random_instance(seed)
    results = {name: _run(name, instance) for name in ENGINES}
    oracle = results["recursive"]
    for name in ("iterative", "vectorized"):
        result = results[name]
        # Sequences, not merely sets: all engines visit candidates in
        # ascending vertex order.
        assert result.matches == oracle.matches, name
        assert result.num_enumerations == oracle.num_enumerations, name
        assert result.complete == oracle.complete, name


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([1, 2, 3, 17, 500]))
def test_match_limit_truncation(seed, limit):
    instance = _random_instance(seed)
    it = _run("iterative", instance, match_limit=limit)
    vec = _run("vectorized", instance, match_limit=limit)
    assert vec.matches == it.matches
    assert vec.num_enumerations == it.num_enumerations
    assert vec.limit_reached == it.limit_reached


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000))
def test_arbitrary_orders(seed):
    query, data, candidates, _ = _random_instance(seed)
    rng = np.random.default_rng(seed + 1)
    order = [int(u) for u in rng.permutation(query.num_vertices)]
    instance = (query, data, candidates, order)
    # Capped: random orders can explode the search space.
    it = _run("iterative", instance, match_limit=2_000)
    vec = _run("vectorized", instance, match_limit=2_000)
    assert vec.matches == it.matches
    assert vec.num_enumerations == it.num_enumerations
    assert vec.limit_reached == it.limit_reached


# ----------------------------------------------------------------------
# Limits, degenerate shapes
# ----------------------------------------------------------------------
def test_time_limit_expiry_reported():
    # A dense instance with an already-expired deadline: both engines
    # must notice and report timed_out.  The truncation point is
    # wall-clock nondeterministic, so only the flag is comparable.
    data = erdos_renyi(40, 500, 1, seed=0)
    rng = np.random.default_rng(0)
    query = extract_query(data, 6, rng)
    candidates = GQLFilter().filter(query, data)
    order = RIOrderer().order(query, data, candidates)
    for strategy in ("iterative", "vectorized"):
        result = Enumerator(
            strategy=strategy, match_limit=None,
            time_limit=1e-9, check_every=1,
        ).run(query, data, candidates, order)
        assert result.timed_out, strategy
        assert not result.complete, strategy


@pytest.mark.parametrize("strategy", ENGINES)
def test_empty_candidate_query(strategy):
    data = Graph([0, 0, 1], [(0, 1), (1, 2)])
    query = Graph([0, 2], [(0, 1)])  # label 2 has no data vertex
    candidates = GQLFilter().filter(query, data)
    result = _engine(strategy, record_matches=True).run(
        query, data, candidates, [0, 1]
    )
    assert result.num_matches == 0
    assert result.matches == ()


def test_single_vertex_query_matches_iterative():
    data = erdos_renyi(20, 40, 2, seed=3)
    query = Graph([int(data.label(0))], [])
    candidates = GQLFilter().filter(query, data)
    results = {
        name: _engine(name, match_limit=None, record_matches=True).run(
            query, data, candidates, [0]
        )
        for name in ENGINES
    }
    oracle = results["recursive"]
    assert oracle.num_matches > 0
    for name in ("iterative", "vectorized"):
        assert results[name].matches == oracle.matches
        assert results[name].num_enumerations == oracle.num_enumerations


@pytest.mark.parametrize("size", [2, 3])
def test_shallow_queries_use_reduced_frontier(size):
    # n == 2 and n == 3 exercise the no-upper-DFS paths of the batch
    # engine (no parent level / no prefix); pin them explicitly.
    data = erdos_renyi(30, 90, 2, seed=size)
    rng = np.random.default_rng(size)
    query = extract_query(data, size, rng)
    candidates = GQLFilter().filter(query, data)
    order = RIOrderer().order(query, data, candidates)
    instance = (query, data, candidates, order)
    it = _run("iterative", instance)
    vec = _run("vectorized", instance)
    assert vec.matches == it.matches
    assert vec.num_enumerations == it.num_enumerations


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------
@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000), st.integers(1, 9))
def test_stream_prefix_equality_after_early_close(seed, k):
    query, data, candidates, order = _random_instance(seed)
    context = MatchingContext(query, data, candidates)
    it_stream = Enumerator(
        strategy="iterative", time_limit=None
    ).stream_context(context, order, match_limit=None)
    vec_stream = Enumerator(
        strategy="vectorized", time_limit=None
    ).stream_context(context, order, match_limit=None)
    it_prefix = [m for m, _ in zip(it_stream, range(k))]
    vec_prefix = [m for m, _ in zip(vec_stream, range(k))]
    it_stream.close()
    vec_stream.close()
    assert vec_prefix == it_prefix
    # Counters at close() land wherever the last yield left them; the
    # per-match accounting is exact, so they must agree.
    assert vec_stream.num_enumerations == it_stream.num_enumerations
    assert vec_stream.num_matches == it_stream.num_matches


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([1, 3, None]))
def test_stream_result_equals_batch_run(seed, limit):
    query, data, candidates, order = _random_instance(seed)
    context = MatchingContext(query, data, candidates)
    stream = Enumerator(
        strategy="vectorized", time_limit=None
    ).stream_context(context, order, match_limit=limit)
    streamed = list(stream)
    result = stream.result()
    batch = Enumerator(
        strategy="vectorized", match_limit=limit,
        time_limit=None, record_matches=True,
    ).run_context(context, order)
    assert tuple(streamed) == batch.matches
    assert result.num_matches == batch.num_matches
    assert result.num_enumerations == batch.num_enumerations
    assert result.limit_reached == batch.limit_reached


# ----------------------------------------------------------------------
# Sharded runs
# ----------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([2, 4]))
def test_sharded_vectorized_equals_unsharded_iterative(seed, shards):
    rng = np.random.default_rng(seed)
    data = erdos_renyi(50, 140, 3, seed=seed)
    query = extract_query(data, int(rng.integers(3, 6)), rng)
    oracle = Matcher(
        data, filter="gql", orderer="ri", enumerator="iterative",
        match_limit=None, record_matches=True,
    ).match(query)
    sharded = Matcher(
        data, filter="gql", orderer="ri", enumerator="vectorized",
        shards=shards, match_limit=None, record_matches=True,
    ).match(query)
    # Merged per-shard vectorized sequences reproduce the global
    # unsharded iterative emission order exactly.
    assert sharded.enumeration.matches == oracle.enumeration.matches
    assert sharded.num_matches == oracle.num_matches
    # Per-shard #enum agrees engine-to-engine (each shard is its own
    # bit-identical enumeration).
    sharded_it = Matcher(
        data, filter="gql", orderer="ri", enumerator="iterative",
        shards=shards, match_limit=None, record_matches=True,
    ).match(query)
    assert sharded.num_enumerations == sharded_it.num_enumerations
    if sharded.shards is not None and sharded_it.shards is not None:
        assert [
            (o.shard_id, o.num_matches, o.num_enumerations)
            for o in sharded.shards
        ] == [
            (o.shard_id, o.num_matches, o.num_enumerations)
            for o in sharded_it.shards
        ]


# ----------------------------------------------------------------------
# Scratch-buffer growth (the PR's small-fix satellite)
# ----------------------------------------------------------------------
class TestScratchGrowth:
    def test_geometric_growth_no_quadratic_reallocation(self):
        # Growing capacity 1..N one step at a time must re-allocate
        # O(log N) times, not O(N) — the ensure_depths contract.
        scratch = ScratchBuffers([1])
        reallocations = 0
        last = id(scratch.tmp_a)
        for cap in range(2, 2_000):
            scratch.ensure_depths([cap])
            if id(scratch.tmp_a) != last:
                reallocations += 1
                last = id(scratch.tmp_a)
        assert reallocations <= 16

    def test_batch_buffers_grow_and_never_shrink(self):
        scratch = ScratchBuffers([])
        a = scratch.batch("x", 10_000)
        assert a.size >= 10_000
        b = scratch.batch("x", 5)
        assert b is a  # smaller request reuses the grown buffer
        peak = scratch.peak_nbytes
        scratch.batch("x", 100)
        assert scratch.peak_nbytes == peak  # no growth, no new peak

    def test_peak_monotone_and_reuse_across_queries(self):
        # One Matcher, alternating small and large queries: the
        # vectorized engine's thread-local scratch must be reused (peak
        # monotone, never reset) rather than rebuilt per query.
        data = erdos_renyi(60, 200, 2, seed=9)
        matcher = Matcher(
            data, filter="gql", orderer="ri", enumerator="vectorized",
            match_limit=10_000,
        )
        rng = np.random.default_rng(9)
        small = extract_query(data, 3, rng)
        large = extract_query(data, 7, rng)
        peaks = []
        for query in (small, large, small, large):
            matcher.match(query)
            peaks.append(matcher.enumerator.peak_scratch_bytes)
        assert peaks[0] > 0
        assert peaks == sorted(peaks)  # monotone across queries
        # Re-running the large query must not grow the buffers again.
        assert peaks[3] == peaks[1] or peaks[3] == peaks[2]

    def test_run_results_unaffected_by_scratch_reuse(self):
        # The same Enumerator instance (one thread-local scratch) across
        # differently-sized queries stays bit-identical to fresh runs.
        data = erdos_renyi(40, 120, 2, seed=5)
        rng = np.random.default_rng(5)
        queries = [extract_query(data, s, rng) for s in (6, 3, 7, 2)]
        shared = Enumerator(
            strategy="vectorized", match_limit=None, record_matches=True
        )
        for query in queries:
            candidates = GQLFilter().filter(query, data)
            order = RIOrderer().order(query, data, candidates)
            reused = shared.run(query, data, candidates, order)
            fresh = Enumerator(
                strategy="vectorized", match_limit=None, record_matches=True
            ).run(query, data, candidates, order)
            assert reused.matches == fresh.matches
            assert reused.num_enumerations == fresh.num_enumerations
