"""The one explicit-stack DFS of Algorithm 2: :func:`walk_prefixes`.

Algorithm 2 written as a recursion spends one Python stack frame per
query vertex, so a query path longer than the interpreter's recursion
limit raises :class:`RecursionError` before the search even gets going.
This module holds the flat production form, written exactly once: a DFS
driven by per-depth cursors into sorted candidate lists, in the style of
LIVE's and NeuSO's index-driven enumeration loops.
:func:`walk_prefixes` binds every position of the order and suspends
once per match.  It has no mode: its one other suspension point is the
moment it opens a frame at the depth a batch consumer named, and only
when that frame holds enough candidates to be worth handing over — the
bulk frontier of :mod:`repro.matching.enumeration_batch` then expands
everything below it, and the walk carries on with the next prefix.

Local candidates at depth ``i`` (Line 6) depend on one thing only: the
images of ``φ[i]``'s backward neighbours.  The DFS reopens a depth under
the same backward images many times, so each depth keeps a **per-run
memo** from those images to its local candidate list, computed once per
key over the :class:`~repro.matching.candidate_space.CandidateSpace`
flat per-edge index — the base candidate array for a depth without
backward neighbours, one ``(offsets, concat)`` slice for one neighbour,
:func:`intersect_sorted` of the slices for several — and stored as a
Python list, so the per-node step is a list iteration and a byte probe
rather than numpy calls.  The lists are *not* filtered by injectivity
(which changes with the prefix): each visit probes the dense ``used``
map, a :class:`bytearray` that shares its memory with the numpy view
the bulk frontier reads.  The memo lives as long as one walk, so
threads running one plan never share it.

The traversal visits candidates in ascending vertex order — exactly the
order a plain recursion over sorted adjacency scans produces — and skips
a used vertex before it counts, so it yields *identical* match
sequences and identical ``#enum`` counts, including under
``match_limit`` truncation.  That equivalence is what lets the recursive
oracle under ``tests/`` (``recursive_oracle.py``) pin the walk
differentially, whichever frames a consumer takes.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.matching.context import MatchingContext

__all__ = [
    "EnumerationCounters",
    "intersect_sorted",
]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)

#: When one sorted array is this many times longer than the other,
#: binary-searching the long one beats the linear merge.
_GALLOP_RATIO = 16


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted arrays of unique int64 vertex ids.

    Dispatches between ``np.intersect1d`` (comparable sizes) and a
    galloping ``searchsorted`` membership test (lopsided sizes).
    """
    if a.size == 0 or b.size == 0:
        return _EMPTY
    if a.size > b.size:
        a, b = b, a
    if b.size >= _GALLOP_RATIO * a.size:
        idx = np.searchsorted(b, a)
        mask = idx < b.size
        mask[mask] = b[idx[mask]] == a[mask]
        return a[mask]
    return np.intersect1d(a, b, assume_unique=True)


@dataclass(slots=True)
class _Search:
    """Bound state of one walk: ``images[p]`` is the data vertex bound at
    position ``p``; ``taken`` is the dense injectivity map and ``used``
    the numpy view of the same bytes; the rest are the per-depth
    artifacts of :func:`_bind_depths`.  The walk and whatever expands
    the levels below its prefixes share this one object."""

    images: list[int]
    taken: bytearray
    used: np.ndarray
    base_arrays: list[np.ndarray]
    bindings: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]


def _bind_depths(
    context: MatchingContext,
    order: Sequence[int],
    backward: Sequence[Sequence[int]],
) -> _Search:
    """Pre-bind, per depth, the base candidate array and the flat
    ``(positions, offsets, concat)`` triple of every backward neighbour's
    edge direction, so that resolving one adjacency list is
    ``positions[image]`` plus an ``offsets`` slice."""
    candidates = context.candidates
    space = context.space
    base_arrays = [candidates.array(u) for u in order]
    bindings = [
        [space.edge_flat(order[b], u) for b in backward[i]]
        for i, u in enumerate(order)
    ]
    taken = bytearray(context.data.num_vertices)
    used = np.frombuffer(taken, dtype=bool)
    return _Search([0] * len(order), taken, used, base_arrays, bindings)


def _local_candidates(
    search: _Search, backward: Sequence[Sequence[int]], depth: int
) -> np.ndarray:
    """Local candidate array at ``depth`` (Line 6 of Algorithm 2, without
    the injectivity filter) under the backward images bound in
    ``search.images``: the base candidate array, one slice of the flat
    per-edge index, or the smallest-first intersection of several.
    Sorted ascending; the walk memoizes it per backward key."""
    backs = backward[depth]
    if not backs:
        return search.base_arrays[depth]
    images = search.images
    arrays = []
    for (positions, offsets, concat), b in zip(search.bindings[depth], backs):
        p = positions[images[b]]
        arrays.append(concat[offsets[p] : offsets[p + 1]])
    arrays.sort(key=len)
    arr = arrays[0]
    for other in arrays[1:]:
        arr = intersect_sorted(arr, other)
    return arr


def _memo_key(backs: Sequence[int]):
    """The memo key of a depth, read off ``images``: the one backward
    image, the tuple of several, or a constant for none."""
    if backs:
        return itemgetter(*backs)
    return lambda images: None


class EnumerationCounters:
    """Mutable side-channel between :func:`walk_prefixes` and its consumer.

    A suspended generator cannot return counters, so the walk publishes
    them here instead.  The contract: the fields are current whenever
    the *started* walk has just yielded, returned, raised, or been
    closed — it refreshes ``num_enumerations`` before every yield and,
    via ``try/finally``, on every way out of the frame, including a
    ``close()`` between pulls.  The channel runs both ways: a consumer
    that was handed a frame adds the steps it takes *below* the prefix
    to ``num_enumerations`` and sets ``timed_out`` if its own deadline
    check fires; the walk re-reads both on resume.  A generator that is
    closed before its first pull never ran at all, so it cannot refresh
    anything; :func:`~repro.matching.enumeration_batch.enumerate_batch`
    always pulls at least once.
    """

    __slots__ = ("num_enumerations", "timed_out")

    def __init__(self) -> None:
        self.num_enumerations = 0
        self.timed_out = False


def walk_prefixes(
    search: _Search,
    backward: Sequence[Sequence[int]],
    deadline: float | None,
    check_every: int,
    counters: EnumerationCounters,
    frame_depth: int = -1,
    min_parents: int = 0,
) -> Iterator[np.ndarray | None]:
    """The explicit-stack DFS over every position of the order.

    Yields ``None`` once per match, in DFS lexicographic order, with the
    match in ``search.images`` (by position).  The one other suspension
    point: when the walk opens the frame at position ``frame_depth`` and
    its local candidate array holds at least ``min_parents`` entries, it
    yields *that array* (sorted, not filtered by ``used``) instead of
    walking it.  The frame is then the consumer's —
    ``search.images[:frame_depth]`` is the prefix, ``search.used`` marks
    exactly its images, and every embedding below is the consumer's to
    find and to charge — and the walk treats it as exhausted when it
    resumes.  A smaller frame is walked per node without suspending; the
    default ``frame_depth`` is no frame's depth, so a consumer that
    names none only ever sees matches.

    ``#enum`` is counted exactly as Algorithm 2's recursion counts
    calls: one for the root plus one per extension attempt; see
    :class:`EnumerationCounters` for how it is published and how the
    consumer of a frame charges its own steps or stops the walk.  There
    is deliberately no match limit here: truncation is the consumer's
    move (stop iterating / ``close()``), which keeps one definition of
    "stop after the k-th match".  ``deadline`` is absolute
    ``time.perf_counter`` time, checked whenever ``#enum`` reaches a
    multiple of ``check_every``, so wall clock a consumer spends between
    pulls counts against it too.
    """
    images = search.images
    taken = search.taken
    n = len(images)
    last = n - 1
    keys = [_memo_key(backs) for backs in backward]
    # Per depth: backward key -> local candidates, a list to walk, or
    # the array itself for a frame that is handed over.
    memos: list[dict] = [{} for _ in range(n)]
    # Per-depth cursors: an iterator over the frame's candidate list.
    cursors: list[Iterator[int]] = [iter(())] * n
    perf_counter = time.perf_counter
    enum = 0
    depth = -1
    try:
        while True:
            # One "call" of Algorithm 2's recursion: the root (depth -1)
            # or the extension attempt that just bound images[depth].
            enum += 1
            if (
                deadline is not None
                and enum % check_every == 0
                and perf_counter() > deadline
            ):
                counters.timed_out = True
                return
            if depth == last:
                counters.num_enumerations = enum
                yield None
            else:
                if depth >= 0:
                    taken[v] = 1
                depth += 1
                key = keys[depth](images)
                memo = memos[depth]
                cand = memo.get(key)
                if cand is None:
                    arr = _local_candidates(search, backward, depth)
                    if depth == frame_depth and arr.size >= min_parents:
                        cand = arr
                    else:
                        cand = arr.tolist()
                    memo[key] = cand
                if depth == frame_depth and cand.__class__ is not list:
                    counters.num_enumerations = enum
                    try:
                        yield cand
                    finally:
                        # Also on a close() mid-frame, so the outer
                        # refresh below cannot un-charge the consumer's
                        # steps.
                        enum = counters.num_enumerations
                    if counters.timed_out:
                        return
                    cand = ()
                cursors[depth] = iter(cand)
            # Advance to the next unused candidate, backtracking out of
            # exhausted frames; falling off the root ends the walk.
            while depth >= 0:
                for v in cursors[depth]:
                    # Injectivity probe: an already-mapped vertex is
                    # skipped before it counts, exactly as a
                    # pre-filtered list never contains it.
                    if not taken[v]:
                        images[depth] = v
                        break
                else:
                    # Frame exhausted: free the parent's image.
                    depth -= 1
                    if depth >= 0:
                        taken[images[depth]] = 0
                    continue
                break
            else:
                return
    finally:
        # One refresh on every way out — normal exhaustion, timeout,
        # GeneratorExit from a close() between pulls, or an exception —
        # so the published counters can never go stale.
        counters.num_enumerations = enum


def _positions_by_vertex(order: Sequence[int]) -> list[int]:
    """``where[u]`` is the position of query vertex ``u`` in ``order``:
    indexing the columns of a block of images-by-position with it gives
    the embeddings indexed by query vertex — the shape results hand
    out."""
    return sorted(range(len(order)), key=order.__getitem__)
