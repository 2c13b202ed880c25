"""Iterative, array-based enumeration core (explicit stack, no recursion).

Algorithm 2 written as a recursion spends one Python stack frame per
query vertex, so a query path longer than the interpreter's recursion
limit raises :class:`RecursionError` before the search even gets going.
This module holds the flat production form: a DFS driven by per-depth
cursors into *sorted numpy candidate arrays*, in the style of LIVE's
and NeuSO's index-driven enumeration loops.

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
pin this engine differentially.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence

import numpy as np

from repro.matching.context import MatchingContext
from repro.matching.kernels import (
    ScratchBuffers,
    intersect_into,
    intersect_unused_into,
)

__all__ = ["EnumerationCounters", "intersect_sorted", "enumerate_iterative", "enumerate_lazy"]

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


def _bind_depths(
    context: MatchingContext,
    order: Sequence[int],
    backward: Sequence[Sequence[int]],
    scratch: ScratchBuffers | None = None,
) -> tuple[
    list[np.ndarray],
    list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]],
    ScratchBuffers,
]:
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
    capacities = [
        min(_max_segment(offsets) for _, offsets, _ in bindings[i])
        if len(backward[i]) > 1
        else 0
        for i in range(len(order))
    ]
    if scratch is None:
        return base_arrays, bindings, ScratchBuffers(capacities)
    return base_arrays, bindings, scratch.ensure_depths(capacities)


def _local_candidates(
    depth: int,
    backward: Sequence[Sequence[int]],
    base_arrays: list[np.ndarray],
    bindings: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]],
    images: list[int],
    used: np.ndarray,
    scratch: ScratchBuffers,
) -> np.ndarray:
    """Local candidate list at ``depth`` (Line 6 of Algorithm 2), shared
    by the batch and the generator drivers so their visit order — and
    therefore match sequences and ``#enum`` — cannot drift apart.

    Returns a sorted array the driver's cursor walks directly: a
    zero-copy view (the base candidate array, or one slice of the flat
    per-edge index) when the depth has at most one backward neighbour,
    or a view of ``scratch.cand[depth]`` holding the smallest-first
    ping-pong intersection when it has several.  Injectivity: the
    multi-neighbour path fuses the ``used`` mask into its final write;
    the view paths leave it to the driver's per-visit probe.  ``used``
    is constant while this depth's sibling loop runs, so both filter
    points admit the same candidates — used vertices never count
    towards ``#enum`` in either engine.
    """
    backs = backward[depth]
    if not backs:
        return base_arrays[depth]
    if len(backs) == 1:
        positions, offsets, concat = bindings[depth][0]
        p = positions[images[backs[0]]]
        return concat[offsets[p] : offsets[p + 1]]
    arrays = []
    for (positions, offsets, concat), b in zip(bindings[depth], backs):
        p = positions[images[b]]
        arrays.append(concat[offsets[p] : offsets[p + 1]])
    arrays.sort(key=len)
    # Intersect smallest-first through the two ping-pong buffers; the
    # last intersection fuses the injectivity filter and writes straight
    # into this depth's candidate buffer.
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
        arr, arrays[-1], used, out, scratch.mask, scratch.mask2
    )
    return out[:length]


def enumerate_iterative(
    context: MatchingContext,
    order: Sequence[int],
    backward: Sequence[Sequence[int]],
    match_limit: int | None,
    deadline: float | None,
    check_every: int,
    record: bool,
) -> tuple[int, int, bool, bool, list[tuple[int, ...]]]:
    """Run the explicit-stack DFS; returns raw counters, not a result.

    Parameters mirror one :meth:`Enumerator.run` invocation after its
    shared validation: ``context`` carries the instance (its
    :class:`CandidateSpace` is built on first access when the engine
    runs standalone; ``Matcher.plan`` pre-builds it in Phase (1)),
    ``backward`` lists backward-neighbour *positions* per position in
    ``order``, and ``deadline`` is an absolute ``time.perf_counter``
    timestamp.

    Returns ``(num_matches, num_enumerations, timed_out, limit_reached,
    matches)`` with ``#enum`` counted exactly as Algorithm 2's recursion
    counts calls: one for the root plus one per extension attempt.
    """
    n = len(order)
    last = n - 1
    used = np.zeros(context.data.num_vertices, dtype=bool)
    base_arrays, bindings, scratch = _bind_depths(context, order, backward)
    # Per-depth frames: the local candidate array (a view — see
    # _local_candidates) and a cursor into it.
    cand_stack: list[np.ndarray] = [_EMPTY] * n
    len_stack: list[int] = [0] * n
    pos_stack: list[int] = [0] * n
    images: list[int] = [0] * n
    matches: list[tuple[int, ...]] = []
    found = 0
    timed_out = limited = False
    perf_counter = time.perf_counter

    # Root "call" (recurse(0) in Algorithm 2's recursion).
    enum = 1
    if deadline is not None and enum % check_every == 0 and perf_counter() > deadline:
        return 0, enum, True, False, matches
    depth = 0
    arr = _local_candidates(0, backward, base_arrays, bindings, images, used, scratch)
    cand_stack[0] = arr
    len_stack[0] = arr.size
    pos_stack[0] = 0

    while depth >= 0:
        pos = pos_stack[depth]
        if pos >= len_stack[depth]:
            # Frame exhausted: backtrack and free the parent's image.
            depth -= 1
            if depth >= 0:
                used[images[depth]] = False
            continue
        pos_stack[depth] = pos + 1
        v = cand_stack[depth].item(pos)
        if used[v]:
            # Injectivity probe for the zero-copy candidate views; an
            # already-mapped vertex is skipped before it counts, exactly
            # as a pre-filtered list never contains it.
            continue
        enum += 1
        if (
            deadline is not None
            and enum % check_every == 0
            and perf_counter() > deadline
        ):
            timed_out = True
            break
        images[depth] = v
        if depth == last:
            found += 1
            if record:
                by_query_vertex = [0] * n
                for p in range(n):
                    by_query_vertex[order[p]] = images[p]
                matches.append(tuple(by_query_vertex))
            if match_limit is not None and found >= match_limit:
                limited = True
                break
            continue
        used[v] = True
        depth += 1
        arr = _local_candidates(
            depth, backward, base_arrays, bindings, images, used, scratch
        )
        cand_stack[depth] = arr
        len_stack[depth] = arr.size
        pos_stack[depth] = 0

    return found, enum, timed_out, limited, matches


class EnumerationCounters:
    """Mutable side-channel for :func:`enumerate_lazy`.

    A suspended generator cannot return counters, so the lazy driver
    publishes them here instead.  The contract: the fields are current
    whenever the *started* generator has just yielded, returned, raised,
    or been closed — the driver refreshes ``num_enumerations`` before
    every yield and, via ``try/finally``, on every way out of the frame,
    including a ``close()`` between pulls.  A generator that is closed
    before its first pull never ran at all, so it cannot refresh
    anything; :class:`~repro.matching.enumeration.MatchStream` covers
    that window by pre-charging the root step at stream creation.
    """

    __slots__ = ("num_enumerations", "timed_out")

    def __init__(self) -> None:
        self.num_enumerations = 0
        self.timed_out = False


def enumerate_lazy(
    context: MatchingContext,
    order: Sequence[int],
    backward: Sequence[Sequence[int]],
    deadline: float | None,
    check_every: int,
    counters: EnumerationCounters,
) -> Iterator[tuple[int, ...]]:
    """Generator twin of :func:`enumerate_iterative`: yields embeddings.

    Runs the same explicit-stack DFS over the same per-depth bindings and
    :func:`_local_candidates`, but suspends at every match instead of
    accumulating, yielding the embedding as a tuple indexed by query
    vertex.  The DFS state lives in the suspended generator frame, so a
    consumer that stops after ``k`` matches pays only the search explored
    up to the ``k``-th match — exactly the ``#enum`` the batch driver
    reports under ``match_limit=k``.

    There is deliberately no match limit here: truncation is the
    consumer's move (stop iterating / ``close()`` the generator), which
    keeps one definition of "stop after the k-th match" for both drivers.
    ``counters`` is refreshed before every yield and — via the
    ``try/finally`` — on every exit from the frame: exhaustion, timeout,
    an exception, or a ``close()`` between pulls.  ``deadline`` is
    absolute ``time.perf_counter`` time, so wall clock the *consumer*
    spends between pulls counts against it too.
    """
    n = len(order)
    last = n - 1
    used = np.zeros(context.data.num_vertices, dtype=bool)
    base_arrays, bindings, scratch = _bind_depths(context, order, backward)
    cand_stack: list[np.ndarray] = [_EMPTY] * n
    len_stack: list[int] = [0] * n
    pos_stack: list[int] = [0] * n
    images: list[int] = [0] * n
    perf_counter = time.perf_counter

    enum = 1
    try:
        counters.num_enumerations = enum
        if deadline is not None and enum % check_every == 0 and perf_counter() > deadline:
            counters.timed_out = True
            return
        depth = 0
        arr = _local_candidates(
            0, backward, base_arrays, bindings, images, used, scratch
        )
        cand_stack[0] = arr
        len_stack[0] = arr.size
        pos_stack[0] = 0

        while depth >= 0:
            pos = pos_stack[depth]
            if pos >= len_stack[depth]:
                depth -= 1
                if depth >= 0:
                    used[images[depth]] = False
                continue
            pos_stack[depth] = pos + 1
            v = cand_stack[depth].item(pos)
            if used[v]:
                # Injectivity probe for the zero-copy candidate views;
                # skipped vertices never count towards #enum.
                continue
            enum += 1
            if (
                deadline is not None
                and enum % check_every == 0
                and perf_counter() > deadline
            ):
                counters.timed_out = True
                return
            images[depth] = v
            if depth == last:
                by_query_vertex = [0] * n
                for p in range(n):
                    by_query_vertex[order[p]] = images[p]
                counters.num_enumerations = enum
                yield tuple(by_query_vertex)
                continue
            used[v] = True
            depth += 1
            arr = _local_candidates(
                depth, backward, base_arrays, bindings, images, used, scratch
            )
            cand_stack[depth] = arr
            len_stack[depth] = arr.size
            pos_stack[depth] = 0
    finally:
        # One refresh on every way out — normal exhaustion, timeout,
        # GeneratorExit from a close() between pulls, or an exception —
        # so the published counters can never go stale.
        counters.num_enumerations = enum
