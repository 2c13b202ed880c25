"""The walk's per-run candidate memo, pinned where it can go wrong.

Each depth of :func:`~repro.matching.enumeration_batch.walk`
memoizes its local candidates by the images of its backward neighbours
and stores them *unfiltered* by injectivity.  Two things could break
that and still pass a suite that never reuses an entry: a key that is
served from the dict long after it was computed (not merely from the
visit before), and a stored list holding a vertex that a later prefix
has already used.  The instances here are built to do both at a
one-neighbour depth and at a two-neighbour depth, and a spy on the
memo's key and fill functions proves that they did — so no test here
passes vacuously.  Every instance must equal the recursive oracle under
every frame mode, at every ``match_limit``, and on the expiry path; and
two threads running one shared plan under different limits must each
equal it, because the memo belongs to one run.
"""

import sys
import threading
from contextlib import contextmanager

import pytest
from frontier_modes import MODES, check_every, frontier_mode
from recursive_oracle import RecursiveOracle

from repro import Matcher
from repro.graphs import Graph, erdos_renyi
from repro.matching import Enumerator, GQLFilter, LDFFilter
from repro.matching import enumeration, enumeration_batch

#: Order positions 0..5.  Position 2 has one backward neighbour (1),
#: whose image recurs under different images of 0; position 3 has two
#: (1 and 2), whose pair recurs the same way.  Both sit at or above
#: ``n - 3``, so the walk opens them whichever frames are taken.
QUERY_EDGES = [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
ONE_NEIGHBOUR_DEPTH = 2
TWO_NEIGHBOUR_DEPTH = 3


def _instance(seed: int):
    data = erdos_renyi(10, 18, 1, seed=seed)
    query = Graph([0] * 6, QUERY_EDGES)
    candidates = LDFFilter().filter(query, data)
    return query, data, candidates, list(range(6))


def _oracle(instance, match_limit=None):
    return RecursiveOracle(match_limit=match_limit, record_matches=True).run(*instance)


def _run(mode, instance, **kwargs):
    kwargs.setdefault("match_limit", None)
    kwargs.setdefault("record_matches", True)
    kwargs.setdefault("time_limit", None)
    with frontier_mode(mode):
        return Enumerator(**kwargs).run(*instance)


@contextmanager
def memo_spy():
    """Log every walk's memo traffic: yields a list that gets, per walk,
    one entry per depth — the ``(key, prefix images)`` of every open of
    that depth, and ``{key: candidates}`` for every memo fill."""
    walks: list[list[tuple[list, dict]]] = []
    current: dict = {}
    real_walk = enumeration.walk
    real_key = enumeration_batch._memo_key
    real_fill = enumeration_batch._local_candidates

    def walk(context, order, backward, *args):
        depths = [([], {}) for _ in backward]
        walks.append(depths)
        current["depths"] = depths
        current["next"] = iter(range(len(backward)))
        return real_walk(context, order, backward, *args)

    def key(backs):
        # The walk builds one key function per depth, in depth order.
        depth = next(current["next"])
        opens = current["depths"][depth][0]
        real = real_key(backs)

        def logged(images):
            k = real(images)
            opens.append((k, tuple(images[:depth])))
            return k

        return logged

    def fill(search, backward, depth):
        arr = real_fill(search, backward, depth)
        opens, filled = current["depths"][depth]
        k = opens[-1][0]
        assert k not in filled, "a key was computed twice in one run"
        filled[k] = arr.tolist()
        return arr

    with pytest.MonkeyPatch.context() as patch:
        # The walk is patched where the engine calls it.
        patch.setattr(enumeration, "walk", walk)
        patch.setattr(enumeration_batch, "_memo_key", key)
        patch.setattr(enumeration_batch, "_local_candidates", fill)
        yield walks


def _dict_hits(opens):
    """Opens served from the memo under a key that the visit before
    did not use: the entry came from the dict, not the last fill."""
    keys = [k for k, _ in opens]
    return [
        j for j in range(1, len(keys)) if keys[j] in keys[:j] and keys[j] != keys[j - 1]
    ]


def _stale_hits(opens, filled):
    """Memo hits whose stored list holds a vertex the prefix now uses."""
    seen = set()
    stale = []
    for k, prefix in opens:
        if k in seen and set(filled[k]) & set(prefix):
            stale.append(k)
        seen.add(k)
    return stale


@pytest.fixture(scope="module", params=[2, 3, 5])
def instance(request):
    instance = _instance(request.param)
    oracle = _oracle(instance)
    assert 20 <= oracle.num_matches <= 400
    return instance


@pytest.mark.parametrize("mode", MODES)
def test_memo_reuses_entries_and_equals_the_oracle(instance, mode):
    oracle = _oracle(instance)
    with memo_spy() as walks:
        recorded = _run(mode, instance)
    assert len(walks) == 1
    for depth in (ONE_NEIGHBOUR_DEPTH, TWO_NEIGHBOUR_DEPTH):
        opens, filled = walks[0][depth]
        # One fill per distinct key, and hits from deep in the dict.
        assert len(filled) == len({k for k, _ in opens}) < len(opens), depth
        assert _dict_hits(opens), depth
        assert _stale_hits(opens, filled), depth
    assert recorded.matches == oracle.matches
    assert recorded.num_enumerations == oracle.num_enumerations
    counted = _run(mode, instance, record_matches=False)
    assert (counted.num_matches, counted.num_enumerations) == (
        oracle.num_matches,
        oracle.num_enumerations,
    )


def test_every_match_limit_equals_the_oracle(instance):
    full = _oracle(instance)
    for limit in range(1, full.num_matches + 1):
        oracle = _oracle(instance, limit)
        for mode in MODES:
            cut = _run(mode, instance, match_limit=limit)
            assert cut.matches == full.matches[:limit], (mode, limit)
            assert cut.num_enumerations == oracle.num_enumerations, (mode, limit)
            assert cut.limit_reached == oracle.limit_reached, (mode, limit)


@pytest.mark.parametrize("mode", MODES)
def test_expired_deadline_stops_at_the_root(instance, mode):
    with check_every(1):
        result = _run(mode, instance, time_limit=1e-9)
    assert result.timed_out and not result.limit_reached
    assert (result.num_matches, result.num_enumerations) == (0, 1)


def test_two_threads_share_one_plan_under_different_limits():
    # One plan, one engine per limit, both on threads at once: the memo
    # is per run, so neither thread can see the other's entries.
    data = erdos_renyi(40, 150, 1, seed=4)
    query = Graph([0] * 6, QUERY_EDGES)
    matcher = Matcher(data, filter="gql", orderer="ri", time_limit=None)
    plan = matcher.plan(query)
    candidates = GQLFilter().filter(query, data)
    full = RecursiveOracle(match_limit=None, record_matches=True).run(
        query, data, candidates, plan.order
    )
    assert full.num_matches > 100
    limits = [None, full.num_matches // 3]
    engines = [
        Enumerator(match_limit=limit, record_matches=True, time_limit=None)
        for limit in limits
    ]
    results: dict[int, list] = {i: [] for i in range(len(limits))}
    barrier = threading.Barrier(len(limits))

    def work(i):
        barrier.wait()
        for _ in range(5):
            results[i].append(matcher.execute(plan, engines[i]).enumeration)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(limits))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, limit in enumerate(limits):
        oracle = RecursiveOracle(match_limit=limit, record_matches=True).run(
            query, data, candidates, plan.order
        )
        assert len(results[i]) == 5
        for result in results[i]:
            assert result.matches == oracle.matches
            assert result.num_enumerations == oracle.num_enumerations
            assert result.limit_reached == oracle.limit_reached
