"""Differential tests: the one engine, whichever frames it takes in bulk.

The walk (:mod:`repro.matching.enumeration_batch`) expands most of the
search per node and calls the bulk frontier on a frame at position
``n-3`` when the frame is wide enough and the order's three deepest
levels are prefix-bound.  Which frames those are must never show: match
sequences, ``#enum``, ``timed_out`` and ``limit_reached`` are pinned to
the recursive oracle with every frame taken, with none taken, and at
the shipped threshold (``MODES``, see ``frontier_modes.py``) — plus
runs that provably mix both paths, the only place the recorded order
could break, cut at every ``match_limit`` and every ``enum_limit``.
The suite also pins which orders hand frames over at all, and that one
engine shared by threads or reused across queries keeps no state
between runs.
"""

import sys
import threading

import numpy as np
import pytest
from frontier_modes import (
    CHUNKS,
    MODES,
    check_every,
    frames_seen,
    frontier_chunk,
    frontier_mode,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from recursive_oracle import RecursiveOracle

from repro import Matcher
from repro.datasets import load_dataset, query_workload
from repro.graphs import Graph, erdos_renyi, extract_query
from repro.matching import (
    Enumerator,
    GQLFilter,
    MatchingContext,
    RIOrderer,
    enumeration_batch,
)


def _random_instance(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 40))
    m = int(rng.integers(n, 3 * n))
    num_labels = int(rng.integers(1, 4))
    data = erdos_renyi(n, m, num_labels, seed=seed)
    query = extract_query(data, int(rng.integers(1, 8)), rng)
    candidates = GQLFilter().filter(query, data)
    order = RIOrderer().order(query, data, candidates)
    return query, data, candidates, order


def _oracle(instance, match_limit=None, enum_limit=None):
    return RecursiveOracle(
        match_limit=match_limit, record_matches=True, enum_limit=enum_limit
    ).run(*instance)


def _run(mode, instance, **kwargs):
    kwargs.setdefault("match_limit", None)
    kwargs.setdefault("record_matches", True)
    kwargs.setdefault("time_limit", None)
    with frontier_mode(mode):
        return Enumerator(**kwargs).run(*instance)


def _assert_equals_oracle(instance, match_limit=None, modes=MODES, enum_limit=None):
    """Recorded and count-only, under every mode, against the oracle."""
    oracle = _oracle(instance, match_limit, enum_limit)
    limits = dict(match_limit=match_limit, enum_limit=enum_limit)
    for mode in modes:
        recorded = _run(mode, instance, **limits)
        counted = _run(mode, instance, **limits, record_matches=False)
        # Sequences, not merely sets: candidates are visited in
        # ascending vertex order whoever expands them.
        assert recorded.matches == oracle.matches, mode
        assert counted.matches == ()
        for result in (recorded, counted):
            assert result.num_matches == oracle.num_matches, mode
            assert result.num_enumerations == oracle.num_enumerations, mode
            assert result.limit_reached == oracle.limit_reached, mode
            assert result.timed_out == oracle.timed_out, mode
    return oracle


# ----------------------------------------------------------------------
# Bit-identity with the oracle under every mode
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 100_000))
def test_three_way_bit_identity_find_all(seed):
    _assert_equals_oracle(_random_instance(seed))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 100_000), st.sampled_from([1, 2, 3, 17, 500]))
def test_match_limit_truncation(seed, limit):
    _assert_equals_oracle(_random_instance(seed), match_limit=limit)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 100_000))
def test_arbitrary_orders(seed):
    query, data, candidates, _ = _random_instance(seed)
    rng = np.random.default_rng(seed + 1)
    # Not necessarily connected: levels without backward neighbours
    # (base-array frames, fixed-list frontier levels) are walked too.
    order = [int(u) for u in rng.permutation(query.num_vertices)]
    # Capped: random orders can explode the search space.
    _assert_equals_oracle((query, data, candidates, order), match_limit=2_000)


# ----------------------------------------------------------------------
# Runs that mix both paths
# ----------------------------------------------------------------------
#: A star-like query: a triangle ``0-1-2``, a vertex ``3`` on both ``0``
#: and ``1``, and a leaf ``4`` on the centre ``0``.  Its RI order ends
#: in ``3`` and ``4``, whose backward neighbours all lie in the prefix
#: above position ``n-3`` — the one shape the frontier takes — with an
#: intersection of two segments for the rows and one for the leaves.
STAR_LIKE_EDGES = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4)]


def _backward(instance) -> list[list[int]]:
    query, data, candidates, order = instance
    context = MatchingContext(query, data, candidates)
    return Enumerator._prepare_order(context, order)[1]


def _prefix_bound(instance) -> bool:
    backward = _backward(instance)
    n = len(backward)
    return n >= 3 and max(backward[-2] + backward[-1], default=-1) < n - 3


def _mixed_instance(seed: int, vertices: int = 30, edges: int = 75):
    """One label, a few hundred embeddings, prefix-bound ``n-3`` frames
    of very different widths."""
    data = erdos_renyi(vertices, edges, 1, seed=seed)
    query = Graph([0] * 5, STAR_LIKE_EDGES)
    candidates = GQLFilter().filter(query, data)
    order = RIOrderer().order(query, data, candidates)
    instance = query, data, candidates, order
    assert _prefix_bound(instance)
    return instance


def _mixing_threshold(instance) -> tuple[int, list[int]]:
    """A ``FRONTIER_MIN_STEPS`` under which this instance's run finds
    some matches in frames taken in bulk and some per node; with it,
    the ``#matches`` of each frame taken in that run."""
    total = _oracle(instance).num_matches
    # Half-octave steps: frames are judged by their width before
    # injectivity, so one octave can jump from every frame to none.
    for half_octaves in range(2, 48):
        threshold = round(2 ** (half_octaves / 2))
        with frames_seen() as taken:
            _run(threshold, instance)
        if 0 < sum(taken) < total:
            return threshold, taken
    raise AssertionError("no threshold splits this instance's matches")


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("seed", [0, 1, 3])
def test_mixed_run_records_in_dfs_order(seed, chunk):
    # Per-node matches are buffered in a flat list and the frontier
    # appends a block per leaf chunk; only a run that produces both can
    # get their interleaving wrong.
    instance = _mixed_instance(seed)
    threshold, frames = _mixing_threshold(instance)
    with frontier_chunk(chunk):
        oracle = _assert_equals_oracle(instance, modes=MODES + (threshold,))
    assert len(frames) > 1 and oracle.num_matches > 100


def _frame_widths(instance, threshold) -> list[int]:
    """The width (parents before injectivity) of every frame the
    frontier is called on in one run under ``threshold``."""
    widths: list[int] = []
    frontier = enumeration_batch._frontier

    def spy(search, backward, W, *args):
        widths.append(W.size)
        return frontier(search, backward, W, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_batch, "_frontier", spy)
        _run(threshold, instance)
    return widths


@pytest.mark.parametrize("seed", range(12))
def test_the_frontier_gets_exactly_the_widest_frames(seed):
    # The rule compares each frame's width with one bound per run, so
    # under any threshold the frames called in bulk are every frame at
    # least as wide as the narrowest of them; the rest are walked per
    # node, and the run equals the oracle either way.
    instance = _mixed_instance(seed)
    every = _frame_widths(instance, "vectorized")
    split = 0
    for half_octaves in range(2, 48):
        threshold = round(2 ** (half_octaves / 2))
        taken = _frame_widths(instance, threshold)
        if not taken:
            break
        widest = sorted(w for w in every if w >= min(taken))
        assert sorted(taken) == widest, threshold
        if len(taken) < len(every):
            split += 1
            _assert_equals_oracle(instance, modes=(threshold,))
    assert split


def _small_mixed_instance():
    """A mixed instance of 239 steps (58 matches, two frames taken under
    its mixing threshold): every limit costs a run, so the limit sweeps
    take the smallest instance that still mixes both paths."""
    return _mixed_instance(3, vertices=22, edges=50)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_match_limit_at_every_position_of_a_mixed_run(chunk):
    # Every limit from 1 to the total: the sweep cuts between two
    # per-node matches, inside a frame, exactly on a frame's last match
    # and on the first match after one.  A small chunk also cuts inside
    # a leaf chunk of a later row group, on a chunk's last survivor and
    # after a chunk that found none.
    instance = _small_mixed_instance()
    threshold, frames = _mixing_threshold(instance)
    full = _oracle(instance)
    assert max(frames) >= 3 and sum(frames) <= full.num_matches - 2
    with frontier_chunk(chunk):
        for limit in range(1, full.num_matches + 1):
            cut = _assert_equals_oracle(instance, limit, modes=MODES + (threshold,))
            assert cut.matches == full.matches[:limit] and cut.limit_reached


#: Oracle runs of the small mixed instance under every budget, shared by
#: the chunk sizes of the sweeps below: the oracle recurses from the
#: root on every call, so a sweep would otherwise pay it per chunk size.
_BUDGET_ORACLE: dict[tuple[int, int | None], object] = {}


def _budget_oracle(instance, enum_limit, match_limit=None):
    key = (enum_limit, match_limit)
    if key not in _BUDGET_ORACLE:
        _BUDGET_ORACLE[key] = _oracle(instance, match_limit, enum_limit)
    return _BUDGET_ORACLE[key]


@pytest.mark.parametrize("chunk", CHUNKS)
def test_every_enum_limit_equals_the_oracle(chunk):
    # Every budget from 1 to the full count: the cut falls on a parent,
    # a row and a leaf step, between two per-node steps, inside a frame,
    # on a frame's last step and on the first step after one.  A small
    # chunk also cuts inside a leaf chunk of a later row group and
    # after a chunk that found nothing.  At the full count the run is
    # complete; below it, it is stopped with exactly the budget counted
    # and the matches found up to it.
    instance = _small_mixed_instance()
    threshold, _ = _mixing_threshold(instance)
    full = _oracle(instance)
    with frontier_chunk(chunk):
        for limit in range(1, full.num_enumerations + 1):
            oracle = _budget_oracle(instance, limit)
            assert oracle.timed_out == (limit < full.num_enumerations)
            assert oracle.num_enumerations == limit
            assert oracle.matches == full.matches[: oracle.num_matches]
            _assert_equals_oracle(
                instance, enum_limit=limit, modes=MODES + (threshold,)
            )


@pytest.mark.parametrize("chunk", (1, 7, enumeration_batch.FRONTIER_CHUNK))
def test_match_limit_and_budget_in_one_chunk(chunk):
    # Both limits set, the k-th match one step either side of the
    # budget: at or below it the match limit stops the run, above it
    # the budget does.  Every frame is taken, and at the shipped chunk
    # size a frame is one leaf chunk, so both cuts fall in the same one.
    instance = _small_mixed_instance()
    full = _oracle(instance)
    seen = set()
    with frontier_chunk(chunk):
        for limit in range(1, full.num_enumerations):
            found = _budget_oracle(instance, limit).num_matches
            for match_limit in (found, found + 1):
                if match_limit < 1:
                    continue
                oracle = _budget_oracle(instance, limit, match_limit)
                seen.add((oracle.limit_reached, oracle.timed_out))
                _assert_equals_oracle(
                    instance, match_limit=match_limit, enum_limit=limit,
                    modes=("vectorized",),
                )
    assert seen == {(True, False), (False, True)}


# ----------------------------------------------------------------------
# Limits, degenerate shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("chunk", CHUNKS)
def test_time_limit_expiry_reported(chunk):
    # A dense instance and the mixed one with an already-expired
    # deadline: the engine must notice and report timed_out whoever is
    # expanding.  The truncation point is wall-clock nondeterministic,
    # so only the flag is comparable.  Checking every 16 steps, the
    # mixed instance's first check falls inside a frame, so with every
    # frame taken the frontier's own check, between chunks, fires.
    data = erdos_renyi(40, 500, 1, seed=0)
    rng = np.random.default_rng(0)
    query = extract_query(data, 6, rng)
    candidates = GQLFilter().filter(query, data)
    order = RIOrderer().order(query, data, candidates)
    instances = [((query, data, candidates, order), 1), (_mixed_instance(0), 16)]
    with frontier_chunk(chunk):
        for instance, steps in instances:
            for mode in MODES:
                with check_every(steps):
                    result = _run(mode, instance, time_limit=1e-9)
                assert result.timed_out, mode
                assert not result.complete, mode


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_expired_deadline_is_reported_at_the_root(mode, n):
    data = erdos_renyi(40, 500, 1, seed=0)
    query = extract_query(data, n, np.random.default_rng(0))
    candidates = GQLFilter().filter(query, data)
    with frontier_mode(mode), check_every(1):
        result = Enumerator(match_limit=None, time_limit=1e-9).run(
            query, data, candidates, list(range(n))
        )
    assert result.timed_out
    assert (result.num_matches, result.num_enumerations) == (0, 1)


@pytest.mark.parametrize("mode", ("recursive",) + MODES)
def test_empty_candidate_query(mode):
    data = Graph([0, 0, 1], [(0, 1), (1, 2)])
    query = Graph([0, 2], [(0, 1)])  # label 2 has no data vertex
    candidates = GQLFilter().filter(query, data)
    instance = (query, data, candidates, [0, 1])
    result = _oracle(instance) if mode == "recursive" else _run(mode, instance)
    assert result.num_matches == 0
    assert result.matches == ()


def test_single_vertex_query_matches_iterative():
    data = erdos_renyi(20, 40, 2, seed=3)
    query = Graph([int(data.label(0))], [])
    candidates = GQLFilter().filter(query, data)
    oracle = _assert_equals_oracle((query, data, candidates, [0]))
    assert oracle.num_matches > 0


@pytest.mark.parametrize("size", [1, 2, 3])
def test_shallow_queries_are_walked_per_node(size):
    # n < 3 has no position n-3; a connected n == 3 query binds its row
    # level to the root's, so it is not prefix-bound.  Nothing is ever
    # handed over, even with every frame forced.
    data = erdos_renyi(30, 90, 2, seed=size)
    rng = np.random.default_rng(size)
    query = extract_query(data, size, rng)
    candidates = GQLFilter().filter(query, data)
    order = RIOrderer().order(query, data, candidates)
    instance = (query, data, candidates, order)
    oracle = _assert_equals_oracle(instance)
    assert oracle.num_matches > 0
    with frames_seen() as taken:
        _run("vectorized", instance)
    assert taken == []


def test_edgeless_triple_hands_over_the_root_frame():
    # Three vertices and no edge: every level is bound to the (empty)
    # prefix, so the frame at n-3 is the root's and nothing is used
    # above it.
    data = erdos_renyi(12, 20, 1, seed=2)
    query = Graph([0, 0, 0], [])
    instance = (query, data, GQLFilter().filter(query, data), [0, 1, 2])
    oracle = _assert_equals_oracle(instance)
    assert oracle.num_matches == 12 * 11 * 10
    with frames_seen() as taken:
        _run("vectorized", instance)
    assert taken == [oracle.num_matches]


# ----------------------------------------------------------------------
# Which orders hand frames over
# ----------------------------------------------------------------------
def test_dense_shape_bound_to_the_parent_level_takes_no_frame():
    # The benchmark's dense shape, on the queries whose RI order gives
    # the row level a backward neighbour at n-3.  Such an order is
    # walked per node under every mode, and still equals the oracle.
    data = erdos_renyi(60, 600, 2, seed=3)
    rng = np.random.default_rng(5)
    instances = []
    for _ in range(20):
        query = extract_query(data, 6, rng)
        candidates = GQLFilter().filter(query, data)
        order = RIOrderer().order(query, data, candidates)
        instance = (query, data, candidates, order)
        if 3 in _backward(instance)[4]:
            instances.append(instance)
    assert len(instances) >= 2
    for instance in instances[:2]:
        for mode in MODES:
            with frames_seen() as taken:
                _assert_equals_oracle(instance, match_limit=2_000, modes=(mode,))
            assert taken == [], mode


def test_prefix_bound_yeast_queries_hand_frames_over():
    # The paper's workloads are where the frontier earns its place: on
    # the seed-0 yeast Q8 pool under gql + ri, some orders are
    # prefix-bound and some of their frames are taken at the shipped
    # threshold.
    data = load_dataset("yeast")
    pool = query_workload("yeast", 8, count=20, seed=0, data=data).all_queries
    matcher = Matcher(data, filter="gql", orderer="ri", match_limit=1_000)
    taken_total = 0
    for query in pool:
        plan = matcher.plan(query)
        instance = (query, data, plan.context.candidates, plan.order)
        if not _prefix_bound(instance):
            continue
        with frames_seen() as taken:
            result = matcher.execute(plan)
        oracle = _oracle(instance, match_limit=1_000)
        assert result.num_enumerations == oracle.num_enumerations
        assert result.num_matches == oracle.num_matches
        taken_total += len(taken)
    assert taken_total > 0


# ----------------------------------------------------------------------
# One engine, many runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", MODES)
def test_threads_sharing_one_plan_equal_the_oracle(mode):
    # A run allocates everything it works in, so threads executing one
    # plan at once (frames taken on each, more threads than two cores)
    # each equal the oracle.
    data = erdos_renyi(40, 120, 1, seed=7)
    query = Graph([0] * 5, STAR_LIKE_EDGES)
    matcher = Matcher(
        data, filter="gql", orderer="ri", match_limit=None, record_matches=True,
        time_limit=None,
    )
    plan = matcher.plan(query)
    instance = (query, data, plan.context.candidates, plan.order)
    assert _prefix_bound(instance)
    oracle = _oracle(instance)
    assert oracle.num_matches > 100
    barrier = threading.Barrier(3)
    results = [None] * 3

    def work(i):
        barrier.wait()
        results[i] = [matcher.execute(plan).enumeration for _ in range(5)]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with frontier_mode(mode), frames_seen() as taken:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert (len(taken) > 0) == (mode != "iterative")
    for runs in results:
        assert runs is not None and len(runs) == 5
        for result in runs:
            assert result.matches == oracle.matches
            assert result.num_enumerations == oracle.num_enumerations


@pytest.mark.parametrize("mode", MODES)
def test_run_results_unaffected_by_enumerator_reuse(mode):
    # The same Enumerator instance across differently-sized queries
    # stays bit-identical to fresh runs.
    data = erdos_renyi(40, 120, 2, seed=5)
    rng = np.random.default_rng(5)
    queries = [extract_query(data, s, rng) for s in (6, 3, 7, 2)]
    queries.append(Graph([0] * 5, STAR_LIKE_EDGES))
    shared = Enumerator(match_limit=None, record_matches=True)
    with frontier_mode(mode):
        for query in queries:
            candidates = GQLFilter().filter(query, data)
            order = RIOrderer().order(query, data, candidates)
            reused = shared.run(query, data, candidates, order)
            fresh = Enumerator(match_limit=None, record_matches=True).run(
                query, data, candidates, order
            )
            assert reused.matches == fresh.matches
            assert reused.num_enumerations == fresh.num_enumerations
