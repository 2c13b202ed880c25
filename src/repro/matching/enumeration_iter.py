"""The one explicit-stack DFS of Algorithm 2: :func:`walk_prefixes`.

Algorithm 2 written as a recursion spends one Python stack frame per
query vertex, so a query path longer than the interpreter's recursion
limit raises :class:`RecursionError` before the search even gets going.
This module holds the flat production form, written exactly once: a DFS
driven by per-depth cursors into *sorted numpy candidate arrays*, in the
style of LIVE's and NeuSO's index-driven enumeration loops.
:func:`walk_prefixes` binds every position of the order and suspends
once per match.  It has no mode: its one other suspension point is the
moment it opens a frame at the depth a batch consumer named, and only
when that frame holds enough candidates to be worth handing over — the
bulk frontier of :mod:`repro.matching.enumeration_batch` then expands
everything below it, and the walk carries on with the next prefix.

Local candidates at depth ``i`` are computed by the buffered galloping
kernels of :mod:`repro.matching.kernels` over the
:class:`~repro.matching.candidate_space.CandidateSpace` flat per-edge
index: each per-depth binding is a ``(positions, offsets, concat)``
array triple, so resolving a backward neighbour's adjacency list is two
array indexings — no dict probes on the hot path.  Depths with at most
one backward neighbour walk a **zero-copy view** (the base candidate
array or one slice of the flat index) with injectivity probed per visit
against the dense ``used`` map; multi-neighbour depths gallop
smallest-first through two ping-pong scratch buffers with the
injectivity mask fused into the final write, landing in a per-depth
candidate buffer owned by a
:class:`~repro.matching.kernels.ScratchBuffers` sized once per query.
The DFS allocates nothing per node, and its cursors walk the numpy
views directly (no ``tolist()``).

The traversal visits candidates in ascending vertex order — exactly the
order a plain recursion over sorted adjacency scans produces — so it
yields *identical* match sequences and identical ``#enum`` counts,
including under ``match_limit`` truncation.  That equivalence is what
lets the recursive oracle under ``tests/`` (``recursive_oracle.py``)
pin the walk differentially, whichever frames a consumer takes.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.matching.context import MatchingContext
from repro.matching.kernels import (
    ScratchBuffers,
    intersect_into,
    intersect_unused_into,
)

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
    galloping ``searchsorted`` membership test (lopsided sizes).  This
    is the allocating convenience form; the enumeration hot path uses
    :func:`repro.matching.kernels.intersect_into`, which writes into
    reusable scratch instead.
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


def _max_segment(offsets: np.ndarray) -> int:
    """Longest adjacency list in one flat ``(offsets, concat)`` binding."""
    if offsets.size < 2:
        return 0
    return int(np.max(offsets[1:] - offsets[:-1]))


@dataclass(slots=True)
class _Search:
    """Bound state of one walk: ``images[p]`` is the data vertex bound at
    position ``p``, ``used`` the dense injectivity map, the rest the
    per-depth artifacts of :func:`_bind_depths`.  The walk and whatever
    expands the levels below its prefixes share this one object."""

    images: list[int]
    used: np.ndarray
    base_arrays: list[np.ndarray]
    bindings: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]]
    scratch: ScratchBuffers


def _bind_depths(
    context: MatchingContext,
    order: Sequence[int],
    backward: Sequence[Sequence[int]],
    scratch: ScratchBuffers | None = None,
) -> _Search:
    """Pre-bind, per depth, the base candidate array and the flat
    ``(positions, offsets, concat)`` triple of every backward neighbour's
    edge direction, so that at runtime resolving one adjacency list is
    ``positions[image]`` plus an ``offsets`` slice.  Also sizes the
    per-query :class:`ScratchBuffers`: only depths with two or more
    backward neighbours write into scratch (the others walk zero-copy
    views), and their buffers are bounded by the smallest backward
    binding's longest adjacency list — smallest-first intersection can
    never produce more.  Passing an existing ``scratch`` re-binds it via
    :meth:`ScratchBuffers.ensure_depths` instead of allocating, so one
    scratch object can serve many queries of different sizes."""
    candidates = context.candidates
    space = context.space
    base_arrays = [candidates.array(u) for u in order]
    bindings = [
        [space.edge_flat(order[b], u) for b in backward[i]]
        for i, u in enumerate(order)
    ]
    capacities = [0] * len(order)
    for i, backs in enumerate(backward):
        if len(backs) > 1:
            capacities[i] = min(_max_segment(offsets) for _, offsets, _ in bindings[i])
    if scratch is None:
        scratch = ScratchBuffers(capacities)
    else:
        scratch.ensure_depths(capacities)
    used = np.zeros(context.data.num_vertices, dtype=bool)
    return _Search([0] * len(order), used, base_arrays, bindings, scratch)


def _local_candidates(
    search: _Search, backward: Sequence[Sequence[int]], depth: int
) -> np.ndarray:
    """Local candidate list at ``depth`` (Line 6 of Algorithm 2) under
    the prefix currently bound in ``search.images`` — the one definition
    the walk and the bulk frontier both extend a prefix with, so their
    visit order (hence match sequences and ``#enum``) cannot drift apart.

    Returns a sorted array a cursor walks directly: a zero-copy view
    (the base candidate array, or one slice of the flat per-edge index)
    when the depth has at most one backward neighbour, or a view of
    ``scratch.cand[depth]`` holding the smallest-first ping-pong
    intersection when it has several.  Injectivity: the multi-neighbour
    path fuses the ``used`` mask into its final write; the view paths
    leave it to the caller's per-visit probe.  ``used`` is constant
    while this depth's sibling loop runs, so both filter points admit
    the same candidates — used vertices never count towards ``#enum``.
    """
    backs = backward[depth]
    if not backs:
        return search.base_arrays[depth]
    images = search.images
    if len(backs) == 1:
        positions, offsets, concat = search.bindings[depth][0]
        p = positions[images[backs[0]]]
        return concat[offsets[p] : offsets[p + 1]]
    arrays = []
    for (positions, offsets, concat), b in zip(search.bindings[depth], backs):
        p = positions[images[b]]
        arrays.append(concat[offsets[p] : offsets[p + 1]])
    arrays.sort(key=len)
    # Intersect smallest-first through the two ping-pong buffers; the
    # last intersection fuses the injectivity filter and writes straight
    # into this depth's candidate buffer.
    scratch = search.scratch
    arr = arrays[0]
    tmp, spare = scratch.tmp_a, scratch.tmp_b
    for other in arrays[1:-1]:
        if not arr.size:
            return _EMPTY
        length = intersect_into(arr, other, tmp, scratch.mask)
        arr = tmp[:length]
        tmp, spare = spare, tmp
    if not arr.size:
        return _EMPTY
    out = scratch.cand[depth]
    length = intersect_unused_into(
        arr, arrays[-1], search.used, out, scratch.mask, scratch.mask2
    )
    return out[:length]


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
    yields *that array* instead of walking it.  The frame is then the
    consumer's — ``search.images[:frame_depth]`` is the prefix,
    ``search.used`` marks exactly its images, and every embedding below
    is the consumer's to find and to charge — and the walk treats it as
    exhausted when it resumes.  A smaller frame is walked per node
    without suspending, so a frame that is not handed over costs one
    integer comparison; the default ``frame_depth`` is no frame's depth,
    so a consumer that names none only ever sees matches.

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
    used = search.used
    n = len(images)
    last = n - 1
    # Per-depth frames: the local candidate array (a view — see
    # _local_candidates) and a cursor into it.
    cand_stack: list[np.ndarray] = [_EMPTY] * n
    len_stack: list[int] = [0] * n
    pos_stack: list[int] = [0] * n
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
                    used[v] = True
                depth += 1
                arr = _local_candidates(search, backward, depth)
                size = arr.size
                if depth == frame_depth and size >= min_parents:
                    counters.num_enumerations = enum
                    try:
                        yield arr
                    finally:
                        # Also on a close() mid-frame, so the outer
                        # refresh below cannot un-charge the consumer's
                        # steps.
                        enum = counters.num_enumerations
                    if counters.timed_out:
                        return
                    size = 0
                cand_stack[depth] = arr
                len_stack[depth] = size
                pos_stack[depth] = 0
            # Advance to the next unused candidate, backtracking out of
            # exhausted frames; falling off the root ends the walk.
            while depth >= 0:
                pos = pos_stack[depth]
                if pos >= len_stack[depth]:
                    # Frame exhausted: free the parent's image.
                    depth -= 1
                    if depth >= 0:
                        used[images[depth]] = False
                    continue
                pos_stack[depth] = pos + 1
                v = cand_stack[depth].item(pos)
                if used[v]:
                    # Injectivity probe for the zero-copy candidate
                    # views; an already-mapped vertex is skipped before
                    # it counts, exactly as a pre-filtered list never
                    # contains it.
                    continue
                images[depth] = v
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
