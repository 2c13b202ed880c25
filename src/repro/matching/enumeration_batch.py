"""The one search loop of Algorithm 2: :func:`walk`, and the bulk
frontier it calls on a wide frame.

Algorithm 2 written as a recursion spends one Python stack frame per
query vertex, so a query path longer than the interpreter's recursion
limit raises :class:`RecursionError` before the search gets going.
:func:`walk` is the flat form, written once: a DFS driven by per-depth
cursors into sorted candidate lists, in the style of LIVE's and NeuSO's
index-driven enumeration loops.  It binds every position of the order,
counts ``#enum`` and the matches, records the matches, and stops at the
match limit, the ``#enum`` budget and the deadline — one loop with no
suspension point.

**The memo.**  Local candidates at depth ``i`` (Line 6) depend only on
the images of ``φ[i]``'s backward neighbours, and the DFS reopens a
depth under the same images many times, so each depth keeps a per-run
memo from those images to its local candidate list: the base candidate
array with no backward neighbour, one ``(offsets, concat)`` slice of the
:class:`~repro.matching.candidate_space.CandidateSpace` flat per-edge
index for one, :func:`intersect_sorted` of the slices for several.  It
is stored as a Python list, so the per-node step is a list iteration and
a byte probe.  The lists are *not* filtered by injectivity (which
changes with the prefix): each visit probes the dense ``taken`` map, a
:class:`bytearray` whose numpy view ``used`` the frontier reads.  The
memo lives as long as one walk, so threads running one plan never share
it.

**The frontier.**  Profiling the bench workloads puts ~98% of all
extension attempts at the deepest two depths, where the per-node loop
pays one interpreter iteration per step.  When every backward neighbour
of positions ``n-2`` and ``n-1`` lies in the prefix above ``n-3`` (the
order is *prefix-bound*), every row of a frame at ``n-3`` shares one
candidate list and every leaf another, with the prefix's images removed
once up front.  A frame of ``P`` parents is then the row list tiled
``P`` times and masked ``≠ parent``, and the leaf list tiled over those
rows and masked ``≠ parent, ≠ row``, in chunks of about
:data:`FRONTIER_CHUNK` flat entries: :func:`_frontier`.  A census over
yeast and citeseer passes (gql + ri, seed-0 pools) found that shape in
all but two of 4,479 taken frames; any other order, and a query with
fewer than three vertices, is walked per node throughout.

A frontier call pays ~50 µs of numpy overhead where a per-node step
costs about 0.55 µs, and the same query has frames of both sizes, so
the choice is per frame.  The candidate-space index gives the mean rows
per parent ``r̄`` and leaves per row ``l̄``; a frame of ``P`` parents
(counted before injectivity) is worth ``P · (1 + r̄ · (1 + l̄))`` steps,
and the walk calls the frontier when that reaches
:data:`FRONTIER_MIN_STEPS` — one threshold on ``P`` per run.

**Bit-identity.**  Candidates are visited in ascending vertex order and
a used vertex is skipped before it counts, exactly as a plain recursion
over sorted adjacency does.  The frontier emits matches parent-major,
then row-major, then by ascending leaf, and reconstructs ``#enum`` in
closed form: each valid parent, row and surviving leaf charges one step,
interleaved in DFS order, so the ``s``-th survivor, under the row of
flat index ``r`` whose parent has index ``i``, carries ``enum_start +
(i+1) + (r+1) + (s+1)``.  Match sequences and ``#enum``, also when
``match_limit`` cuts inside a chunk, are therefore the same whichever
frames are taken, and the recursive oracle under ``tests/``
(``recursive_oracle.py``) pins that with every frame taken, none, and
the default.  The ``#enum`` budget cuts the same way: a frame whose
steps run past it is cut inside the chunk at the budget, keeping the
matches whose step lies within it, so a budget-stopped run is
bit-identical too.  The frontier checks the deadline at chunk
granularity at the walk's cadence (:data:`CHECK_EVERY`); where a
deadline truncates is wall-clock dependent everywhere, so only the flag
is comparable.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro.matching.context import MatchingContext

__all__ = [
    "CHECK_EVERY",
    "FRONTIER_CHUNK",
    "FRONTIER_MIN_STEPS",
    "intersect_sorted",
    "walk",
]

#: Target number of flat entries (parents × rows, or rows × leaves)
#: processed per chunk.  Small enough that the per-chunk arrays stay
#: cache-friendly and truncation checks stay frequent; large enough to
#: amortize numpy call overhead.  One parent's rows (or one row's
#: leaves) always go whole, so this is a target, not a hard cap.
FRONTIER_CHUNK = 1 << 16

#: Estimated ``#enum`` steps under a frame at position ``n-3`` from
#: which the bulk frontier beats walking it per node: the frontier's
#: fixed cost is ~40 numpy calls (≈ 50 µs) against about 0.55 µs per
#: per-node step.  Chosen by measurement and re-measured once the
#: per-node step got cheaper: 32, 128 and 256 each lose on at least one
#: shape (CHANGES.md records both sweeps).  A constant of the
#: implementation, not a setting: only tests ever change it, to force
#: every frame one way.
FRONTIER_MIN_STEPS = 64

#: Deadline check cadence, in ``#enum`` steps: the walk reads the clock
#: whenever ``#enum`` reaches a multiple of it (the frontier, at the first
#: chunk boundary past one).  A constant of the implementation, not a
#: setting: only tests change it, to make an expired deadline fire at a
#: chosen point.
CHECK_EVERY = 2048

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
    artifacts of :func:`_bind_depths`."""

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


def _positions_by_vertex(order: Sequence[int]) -> list[int]:
    """``where[u]`` is the position of query vertex ``u`` in ``order``:
    indexing the columns of a block of images-by-position with it gives
    the embeddings indexed by query vertex — the shape results hand
    out."""
    return sorted(range(len(order)), key=order.__getitem__)


def _block(flat: list[int], n: int) -> np.ndarray:
    """The matches buffered by position in ``flat``, as a ``(k, n)``
    int64 block."""
    return np.fromiter(flat, np.int64, len(flat)).reshape(-1, n)


def _level_width(
    bindings: list[tuple[np.ndarray, np.ndarray, np.ndarray]], base: np.ndarray
) -> float:
    """Mean number of candidates one visit of a frontier level scans,
    read off the candidate-space index: the mean segment length of its
    smallest backward binding, or the base candidate count when it has
    no backward neighbour."""
    if not bindings:
        return float(base.size)
    return min(
        concat.size / max(offsets.size - 1, 1) for _, offsets, concat in bindings
    )


def _min_parents(search: _Search, backward: Sequence[Sequence[int]]) -> int | None:
    """The narrowest frame at position ``n-3`` worth a frontier call —
    the parent count from which the estimated steps under the frame
    reach :data:`FRONTIER_MIN_STEPS` — or ``None`` when the order's
    three deepest levels are not prefix-bound (or there are not three),
    so no frame is ever taken."""
    n = len(backward)
    pa = n - 3
    if pa < 0 or max([*backward[n - 2], *backward[n - 1]], default=-1) >= pa:
        return None
    rows, leaves = (
        _level_width(search.bindings[d], search.base_arrays[d]) for d in (n - 2, n - 1)
    )
    return math.ceil(FRONTIER_MIN_STEPS / (1 + rows * (1 + leaves)))


def _prefix_list(
    search: _Search, backward: Sequence[Sequence[int]], depth: int
) -> np.ndarray:
    """The candidate list every row (or leaf) of a frame shares: the
    level's local candidates under the bound prefix, with the prefix's
    images dropped up front — used vertices never charge, so dropping
    them early cannot change ``#enum``."""
    arr = _local_candidates(search, backward, depth)
    return arr[~search.used[arr]]


def _next_stop(enum: int, enum_limit: int | None, deadline: float | None) -> int:
    """The first ``#enum`` above ``enum`` at which the walk must stop and
    look: the step past the budget, or the next multiple of
    :data:`CHECK_EVERY` when there is a deadline to read — whichever
    comes first; ``0``, which a counted step never equals, when there is
    neither."""
    stop = 0 if enum_limit is None else enum_limit + 1
    if deadline is not None:
        check = (enum // CHECK_EVERY + 1) * CHECK_EVERY
        if not stop or check < stop:
            stop = check
    return stop


def _frontier(
    search: _Search,
    backward: Sequence[Sequence[int]],
    W: np.ndarray,
    enum: int,
    found: int,
    match_limit: int | None,
    enum_limit: int | None,
    deadline: float | None,
    parts: list[np.ndarray] | None,
) -> tuple[int, int, bool, bool]:
    """Bulk-expand levels ``n-3``, ``n-2`` and ``n-1`` under the prefix
    bound in ``search``, whose frame at ``n-3`` is ``W`` (the local
    candidates, not yet filtered by ``used``); ``enum`` and ``found``
    are the walk's counts on entry.  Appends one ``(s, n)`` int64 block
    of images by position per non-empty leaf chunk to ``parts`` (when
    recording) and returns ``(enum, found, stopped, limited)``, with
    ``enum`` the exact DFS count where the frame was left: exhausted,
    cut right after the ``match_limit``-th match, cut at ``enum_limit``
    (the frame needed a step past the budget), or timed out.
    """
    n = len(backward)
    pa = n - 3
    perf_counter = time.perf_counter
    images, used = search.images, search.used

    W_valid = W[~used[W]]
    nW = W_valid.size
    if nW == 0:
        return enum, found, False, False
    rows = _prefix_list(search, backward, n - 2)
    leaves = _prefix_list(search, backward, n - 1)
    enum_start = enum
    next_check = (enum // CHECK_EVERY + 1) * CHECK_EVERY
    parents_done = rows_done = survs_done = 0
    per_group = max(1, FRONTIER_CHUNK // max(rows.size, 1))
    row_step = max(1, FRONTIER_CHUNK // max(leaves.size, 1))

    for g0 in range(0, nW, per_group):
        # ---- rows: the row list tiled per parent, minus the parent ------
        W_grp = W_valid[g0 : g0 + per_group]
        parent_flat, row_col = np.nonzero(rows != W_grp[:, None])
        k = parent_flat.size
        v_flat = rows[row_col]
        wimg = W_grp[parent_flat]
        # Absolute DFS charge carried by each row: parents visited up to
        # and including its own (+1 each) plus rows visited up to and
        # including itself.
        row_charge = np.arange(k, dtype=np.int64)
        row_charge += parent_flat + (parents_done + rows_done + 2)

        # ---- leaves, chunked: the leaf list tiled per row, minus both --
        for r0 in range(0, k, row_step):
            r1 = min(r0 + row_step, k)
            r_of_s, leaf_col = np.nonzero(
                (leaves != wimg[r0:r1, None]) & (leaves != v_flat[r0:r1, None])
            )
            r_of_s += r0
            s = r_of_s.size
            # Consistent DFS position after this chunk: all parents up
            # to the last touched row, all rows up to r1, all survivors
            # so far.
            parents_part = parents_done + int(parent_flat[r1 - 1]) + 1
            enum = enum_start + parents_part + (rows_done + r1) + survs_done + s
            over_budget = enum_limit is not None and enum > enum_limit
            if over_budget:
                # The walk stops before step enum_limit + 1, which lies
                # in this chunk: keep the survivors whose own step (its
                # row's charge plus the survivors up to and including
                # it) is within the budget.
                steps = row_charge[r_of_s] + np.arange(
                    enum_start + survs_done + 1, enum_start + survs_done + s + 1
                )
                s = int(np.searchsorted(steps, enum_limit, side="right"))
            limited = match_limit is not None and found + s >= match_limit
            if limited:
                s = match_limit - found
            if s and parts is not None:
                r_of_s, leaf_col = r_of_s[:s], leaf_col[:s]
                block = np.empty((s, n), dtype=np.int64)
                block[:, :pa] = images[:pa]
                block[:, pa] = wimg[r_of_s]
                block[:, pa + 1] = v_flat[r_of_s]
                block[:, pa + 2] = leaves[leaf_col]
                parts.append(block)
            found += s
            survs_done += s
            if limited:
                # The cut match charges its row's steps and every
                # survivor up to and including itself.
                enum = enum_start + survs_done + int(row_charge[r_of_s[s - 1]])
                return enum, found, False, True
            if over_budget:
                return enum_limit, found, True, False
            if deadline is not None and enum >= next_check:
                next_check = (enum // CHECK_EVERY + 1) * CHECK_EVERY
                if perf_counter() > deadline:
                    return enum, found, True, False

        parents_done += W_grp.size
        rows_done += k
        enum = enum_start + parents_done + rows_done + survs_done
        if enum_limit is not None and enum > enum_limit:
            # Only row-less parents follow the last chunk: no match to keep.
            return enum_limit, found, True, False
        if deadline is not None and enum >= next_check:
            next_check = (enum // CHECK_EVERY + 1) * CHECK_EVERY
            if perf_counter() > deadline:
                return enum, found, True, False
    return enum, found, False, False


def walk(
    context: MatchingContext,
    order: Sequence[int],
    backward: Sequence[Sequence[int]],
    match_limit: int | None,
    enum_limit: int | None,
    deadline: float | None,
    record: bool,
) -> tuple[int, int, bool, bool, np.ndarray]:
    """The explicit-stack DFS over every position of ``order``.

    Parameters mirror one :meth:`Enumerator.run_context` invocation
    after its validation: ``context`` carries the instance (its
    :class:`CandidateSpace` is built on first access when the engine
    runs standalone; ``Matcher.plan`` pre-builds it in Phase (1)),
    ``backward`` lists backward-neighbour *positions* per position, and
    ``deadline`` is absolute ``time.perf_counter`` time, checked
    whenever ``#enum`` reaches a multiple of :data:`CHECK_EVERY`.
    Everything a run allocates is its own, so concurrent runs share
    nothing.

    ``#enum`` is counted exactly as Algorithm 2's recursion counts
    calls: one for the root plus one per extension attempt.
    ``match_limit`` stops right after the k-th match, so ``#enum`` is the
    search explored up to it, whoever found that match.  ``enum_limit``
    stops the walk before its ``enum_limit + 1``-th step: ``#enum`` reads
    ``enum_limit`` and ``timed_out`` is set, as when the deadline fires;
    a search that ends within the budget is not stopped.  The per-step
    test is one comparison with the next stop point (:func:`_next_stop`).
    Returns ``(num_matches, num_enumerations, timed_out, limit_reached,
    matches)``: ``matches`` is one ``(k, n)`` int64 array indexed
    ``[match, query vertex]`` (``k = 0`` unless ``record``).  Matches
    found per node are buffered by position in one flat list, which
    becomes a block before a frontier call appends its own, so the
    blocks concatenate in DFS order; no tuple is built per match.
    """
    n = len(order)
    search = _bind_depths(context, order, backward)
    images = search.images
    taken = search.taken
    last = n - 1
    min_parents = _min_parents(search, backward)
    frame_pos = -1 if min_parents is None else n - 3
    keys = [_memo_key(backs) for backs in backward]
    # Per depth: backward key -> local candidates, a list to walk, or
    # the array itself for a frame the frontier takes.
    memos: list[dict] = [{} for _ in range(n)]
    # Per-depth cursors: an iterator over the frame's candidate list.
    cursors: list[Iterator[int]] = [iter(())] * n
    flat: list[int] = []
    parts: list[np.ndarray] = []
    perf_counter = time.perf_counter
    enum = found = 0
    next_stop = _next_stop(enum, enum_limit, deadline)
    timed_out = limited = False
    depth = -1
    while True:
        # One "call" of Algorithm 2's recursion: the root (depth -1) or
        # the extension attempt that just bound images[depth].
        enum += 1
        if enum == next_stop:
            if enum_limit is not None and enum > enum_limit:
                # The budget is spent: this step is not taken.
                enum = enum_limit
                timed_out = True
                break
            if perf_counter() > deadline:
                timed_out = True
                break
            next_stop = _next_stop(enum, enum_limit, deadline)
        if depth == last:
            found += 1
            if record:
                flat.extend(images)
            if found == match_limit:
                limited = True
                break
        else:
            if depth >= 0:
                taken[v] = 1
            depth += 1
            key = keys[depth](images)
            memo = memos[depth]
            cand = memo.get(key)
            if cand is None:
                arr = _local_candidates(search, backward, depth)
                if depth == frame_pos and arr.size >= min_parents:
                    cand = arr
                else:
                    cand = arr.tolist()
                memo[key] = cand
            if depth == frame_pos and cand.__class__ is not list:
                # Wide enough: the frontier expands the frame and
                # everything below it, then the walk backtracks.
                if flat:
                    parts.append(_block(flat, n))
                    flat.clear()
                enum, found, timed_out, limited = _frontier(
                    search,
                    backward,
                    cand,
                    enum,
                    found,
                    match_limit,
                    enum_limit,
                    deadline,
                    parts if record else None,
                )
                if timed_out or limited:
                    break
                next_stop = _next_stop(enum, enum_limit, deadline)
                cand = ()
            cursors[depth] = iter(cand)
        # Advance to the next unused candidate, backtracking out of
        # exhausted frames; falling off the root ends the walk.
        while depth >= 0:
            for v in cursors[depth]:
                # Injectivity probe: an already-mapped vertex is skipped
                # before it counts, exactly as a pre-filtered list never
                # contains it.
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
            break
    parts.append(_block(flat, n))
    block = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return found, enum, timed_out, limited, block[:, _positions_by_vertex(order)]
