"""The one DFS, driven directly: ``walk_prefixes`` vs the oracle.

The batch driver only ever names one frame depth (``n - 3``) and takes a
frame or not by its width, so the engine suites exercise the hand-over
indirectly.  Here a consumer takes *every* frame at a depth ``d`` of its
choosing, which turns the walk into an enumerator of the partial
embeddings of the first ``d`` positions: those must be exactly the
embeddings of the query *induced by those positions*, in the recursive
oracle's sequence and at its ``#enum``, and the frames handed over must
be exactly the extensions the oracle finds one level down.  The counter
side-channel must carry a consumer's charges and its stop request
without ever re-charging or un-charging a step, and a frame that is too
narrow to hand over must not suspend the walk at all.
"""

import sys

import numpy as np
import pytest
from frontier_modes import MODES, frontier_mode
from recursive_oracle import RecursiveOracle

from repro.graphs import erdos_renyi, extract_query
from repro.matching import CandidateSets, Enumerator, GQLFilter, MatchingContext
from repro.matching.enumeration_iter import (
    EnumerationCounters,
    _bind_depths,
    walk_prefixes,
)


def _instance(seed: int):
    """A random instance under a random (not necessarily connected)
    order, so depths without backward neighbours are walked too."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 40))
    m, labels = int(rng.integers(n, 3 * n)), int(rng.integers(1, 4))
    data = erdos_renyi(n, m, labels, seed=seed)
    query = extract_query(data, int(rng.integers(2, 7)), rng)
    candidates = GQLFilter().filter(query, data)
    order = [int(u) for u in rng.permutation(query.num_vertices)]
    return query, data, candidates, order


def _start(instance, frame_depth, min_parents=0):
    """The walk with every frame at ``frame_depth`` handed over (a depth
    of ``n`` is no frame's: every suspension is then a match)."""
    query, data, candidates, order = instance
    context = MatchingContext(query, data, candidates)
    order, backward = Enumerator._prepare_order(context, order)
    search = _bind_depths(context, order, backward)
    counters = EnumerationCounters()
    walk = walk_prefixes(
        search, backward, None, 2048, counters, frame_depth, min_parents
    )
    return search, counters, walk


def _oracle_on_prefix(instance, depth):
    """The oracle on the query induced by ``order[:depth]`` (vertex ``p``
    of the induced query is position ``p``), same candidate sets."""
    query, data, candidates, order = instance
    induced, _ = query.induced_subgraph(order[:depth])
    sets = CandidateSets([sorted(candidates.get(u)) for u in order[:depth]])
    oracle = RecursiveOracle(match_limit=None, record_matches=True)
    return oracle.run(induced, data, sets, list(range(depth)))


@pytest.mark.parametrize("seed", range(12))
def test_every_stop_agrees_with_the_oracle_on_the_induced_prefix(seed):
    instance = _instance(seed)
    n = instance[0].num_vertices
    for depth in range(n + 1):
        search, counters, walk = _start(instance, depth)
        prefixes, extended = [], []
        for frame in walk:
            # Taking every frame at `depth` leaves no way to a match.
            assert (frame is None) == (depth == n)
            prefix = tuple(search.images[:depth])
            prefixes.append(prefix)
            if frame is not None:
                # Levels below the prefix are shielded from all of it.
                marked = set(np.flatnonzero(search.used).tolist())
                assert marked == set(prefix)
                extended += [prefix + (w,) for w in frame.tolist() if w not in marked]
        expected = _oracle_on_prefix(instance, depth)
        assert tuple(prefixes) == expected.matches, depth
        assert counters.num_enumerations == expected.num_enumerations, depth
        assert not counters.timed_out
        assert not search.used.any(), depth
        if depth < n:
            # The frames are the next level's local candidates.
            assert tuple(extended) == _oracle_on_prefix(instance, depth + 1).matches


@pytest.mark.parametrize("seed", range(12))
def test_narrow_frames_are_walked_without_suspending(seed):
    instance = _instance(seed)
    n = instance[0].num_vertices
    depth = max(n - 3, 0)
    full = _oracle_on_prefix(instance, n)
    # No frame is wide enough: exactly one suspension per match.
    search, counters, walk = _start(instance, depth, sys.maxsize)
    matches = [tuple(search.images) for frame in walk if frame is None]
    assert tuple(matches) == full.matches
    assert counters.num_enumerations == full.num_enumerations
    # A threshold in between: frames at least that wide are handed
    # over, and every match under a narrower one still suspends once.
    _, _, walk = _start(instance, depth)
    widths = sorted(frame.size for frame in walk)
    cutoff = widths[len(widths) // 2] if widths else 1
    search, _, walk = _start(instance, depth, cutoff)
    taken, walked = set(), []
    for frame in walk:
        if frame is None:
            walked.append(tuple(search.images))
        else:
            assert frame.size >= cutoff
            taken.add(tuple(search.images[:depth]))
    assert len(taken) == sum(width >= cutoff for width in widths)
    assert walked == [m for m in full.matches if m[:depth] not in taken]


@pytest.mark.parametrize("seed", range(0, 12, 3))
def test_consumer_charges_ride_the_counters(seed):
    # Steps a consumer takes below each frame are added to the running
    # count and survive to the end of the walk.
    instance = _instance(seed)
    depth = max(instance[0].num_vertices - 3, 0)
    expected = _oracle_on_prefix(instance, depth)
    _, counters, walk = _start(instance, depth)
    for _ in walk:
        counters.num_enumerations += 5
    assert counters.num_enumerations == (
        expected.num_enumerations + 5 * expected.num_matches
    )


def _instance_with_frames(at_least=3):
    """A seeded instance with several frames at its deepest position."""
    for seed in range(50):
        instance = _instance(seed)
        depth = instance[0].num_vertices - 1
        if _oracle_on_prefix(instance, depth).num_matches >= at_least:
            return instance, depth
    raise AssertionError("no seeded instance has enough frames")


def test_timed_out_consumer_stops_the_walk_without_recharging():
    instance, depth = _instance_with_frames()
    _, counters, walk = _start(instance, depth)
    next(walk)
    charged = counters.num_enumerations
    counters.timed_out = True
    assert next(walk, "done") == "done"
    assert counters.num_enumerations == charged


@pytest.mark.parametrize("consumer_steps", [0, 7])
def test_close_mid_walk_leaves_the_last_charged_step(consumer_steps):
    instance, depth = _instance_with_frames()
    _, counters, walk = _start(instance, depth)
    next(walk)
    next(walk)
    counters.num_enumerations += consumer_steps
    charged = counters.num_enumerations
    walk.close()
    assert counters.num_enumerations == charged
    assert not counters.timed_out


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_expired_deadline_is_reported_at_the_root(mode, n):
    data = erdos_renyi(40, 500, 1, seed=0)
    query = extract_query(data, n, np.random.default_rng(0))
    candidates = GQLFilter().filter(query, data)
    with frontier_mode(mode):
        result = Enumerator(match_limit=None, time_limit=1e-9, check_every=1).run(
            query, data, candidates, list(range(n))
        )
    assert result.timed_out
    assert (result.num_matches, result.num_enumerations) == (0, 1)
