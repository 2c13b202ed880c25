"""The batch driver, and the bulk frontier it hands big frames to.

:func:`~repro.matching.enumeration_iter.walk_prefixes` spends one Python
interpreter iteration per ``#enum`` step, and profiling the bench
workloads shows where those steps live: ~78% of all extension attempts
happen at the deepest depth, ~98% at the deepest two, ~99.7% at the
deepest three.  This module holds no DFS of its own:
:func:`enumerate_batch` drains the one walk, and when the walk opens a
frame at position ``n-3`` that is wide enough it hands the frame over,
and everything below it — the *parent* level ``A = n-3``, the *row*
level ``B = n-2`` and the *leaf* level ``C = n-1`` — is expanded in
bulk, its steps charged to the walk's counters.

**Which orders.**  The frontier handles one shape: every backward
neighbour of ``B`` and of ``C`` lies in the prefix above ``A``.  Under
one prefix, every row of a frame then shares one candidate list and
every leaf another — the intersection of the prefix neighbours'
segments (or the base candidates), with the prefix's images removed
once up front — so a frame of ``P`` parents is the row list tiled ``P``
times and masked ``≠ parent``, and the leaf list tiled over those rows
and masked ``≠ parent, ≠ row``, in chunks of about
:data:`FRONTIER_CHUNK` flat entries.  That is the shape of the frames
the paper's workloads offer: a census over yeast and citeseer passes
(gql + ri, seed-0 pools) found it in all but two of 4,479 taken frames.
For any other order, and for a query with fewer than three vertices,
:func:`enumerate_batch` names no frame depth and the whole search is
walked per node.

**Which frames.**  A frontier call pays a fixed ~50 µs of numpy call
overhead where a per-node step costs about 0.55 µs, so it wins on a
frame with hundreds of steps under it and loses badly on one with a
dozen — and the same query has both.  Neither the user nor any feature
of the query known before the walk can make that choice; the size of
the subtree under each *prefix* decides, and the walk sees it when it
opens the frame.  So the rule is per frame: the candidate-space index
gives the mean number of rows per parent ``r̄`` and leaves per row
``l̄``, a frame of ``P`` parents (counted before injectivity) is worth
``P · (1 + r̄ · (1 + l̄))`` steps, and it is taken when that reaches
:data:`FRONTIER_MIN_STEPS` — one integer threshold on ``P`` per
(plan, order), computed before the walk and compared inside it.

**Bit-identity.**  Matches are emitted parent-major, then row-major,
then in ascending leaf order — exactly the DFS lexicographic order —
and ``#enum`` is reconstructed in closed form: every valid parent
charges one step, every valid row charges one step, every surviving
leaf charges one step, all interleaved in DFS order.  A survivor whose
parent has (frontier-local) index ``i``, whose row has flat index ``r``
and which is the ``s``-th survivor of the frontier therefore carries
``enum_start + (i+1) + (r+1) + (s+1)``; vertices skipped by any filter
(``used``, in-batch ancestors) never charge, matching the per-node
walk, where a used vertex is skipped *before* it counts.  This makes
match sequences and ``#enum`` — including under ``match_limit``
truncation, which cuts mid-chunk using the per-survivor enum vector —
the same whichever frames are taken, which is what the differential
suite checks against the recursive oracle with every frame taken, with
none, and at the default.

Timeout checks keep the per-node walk's cadence contract (a check
whenever ``#enum`` crosses a multiple of ``check_every``) but fire at
chunk granularity inside the frontier; timeout *outcomes* are
wall-clock-dependent everywhere, so only the flag, not the truncation
point, is comparable.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator, Sequence

import numpy as np

from repro.matching.context import MatchingContext
from repro.matching.enumeration_iter import (
    EnumerationCounters,
    _bind_depths,
    _local_candidates,
    _positions_by_vertex,
    _Search,
    walk_prefixes,
)

__all__ = [
    "FRONTIER_CHUNK",
    "FRONTIER_MIN_STEPS",
    "enumerate_batch",
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
    so no frame is ever handed over."""
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


def _frontier(
    search: _Search,
    backward: Sequence[Sequence[int]],
    order: Sequence[int],
    W: np.ndarray,
    deadline: float | None,
    check_every: int,
    flags: EnumerationCounters,
    need_matrix: bool,
) -> Iterator[tuple[np.ndarray | None, np.ndarray]]:
    """Bulk-expand levels (A, B, C) under the prefix bound in ``search``;
    ``W`` is the frame the walk handed over — the parent level's local
    candidates, not yet filtered by ``used``.  Yields ``(matrix, senum)``
    per non-empty leaf chunk.

    ``matrix`` is an ``(s, n)`` int64 array of embeddings indexed by
    query vertex (``None`` when ``need_matrix`` is false); ``senum`` is
    the exact DFS ``#enum`` value at each of the ``s`` matches, in
    order.  Both are freshly allocated per chunk, so consumers may hold
    them across pulls.  After every chunk and on return, ``flags``
    carries the ``#enum`` reached and the timeout flag.
    """
    n = len(order)
    perf_counter = time.perf_counter
    images, used = search.images, search.used
    pa, rb, lc = n - 3, n - 2, n - 1

    W_valid = W[~used[W]]
    nW = W_valid.size
    if nW == 0:
        return
    rows = _prefix_list(search, backward, rb)
    leaves = _prefix_list(search, backward, lc)
    enum = enum_start = flags.num_enumerations
    next_check = (enum // check_every + 1) * check_every
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
            s = r_of_s.size
            if s:
                r_of_s += r0
                senum = row_charge[r_of_s] + np.arange(s, dtype=np.int64)
                senum += enum_start + survs_done + 1
                matrix = None
                if need_matrix:
                    matrix = np.empty((s, n), dtype=np.int64)
                    for d in range(pa):
                        matrix[:, order[d]] = images[d]
                    matrix[:, order[pa]] = wimg[r_of_s]
                    matrix[:, order[rb]] = v_flat[r_of_s]
                    matrix[:, order[lc]] = leaves[leaf_col]
                survs_done += s
                yield matrix, senum

            # Consistent DFS position after this chunk: all parents up
            # to the last touched row, all rows up to r1, all survivors
            # so far.
            parents_part = parents_done + int(parent_flat[r1 - 1]) + 1
            enum = enum_start + parents_part + (rows_done + r1) + survs_done
            flags.num_enumerations = enum
            if deadline is not None and enum >= next_check:
                next_check = (enum // check_every + 1) * check_every
                if perf_counter() > deadline:
                    flags.timed_out = True
                    return

        parents_done += W_grp.size
        rows_done += k
        enum = enum_start + parents_done + rows_done + survs_done
        flags.num_enumerations = enum
        if deadline is not None and enum >= next_check:
            next_check = (enum // check_every + 1) * check_every
            if perf_counter() > deadline:
                flags.timed_out = True
                return


def enumerate_batch(
    context: MatchingContext,
    order: Sequence[int],
    backward: Sequence[Sequence[int]],
    match_limit: int | None,
    deadline: float | None,
    check_every: int,
    record: bool,
) -> tuple[int, int, bool, bool, np.ndarray]:
    """The batch driver: drain the walk; returns raw counters, not a
    result.

    Parameters mirror one :meth:`Enumerator.run_context` invocation
    after its shared validation: ``context`` carries the instance (its
    :class:`CandidateSpace` is built on first access when the engine
    runs standalone; ``Matcher.plan`` pre-builds it in Phase (1)),
    ``backward`` lists backward-neighbour *positions* per position in
    ``order``, and ``deadline`` is an absolute ``time.perf_counter``
    timestamp.  Everything a run allocates is its own, so concurrent
    runs share nothing.

    Returns ``(num_matches, num_enumerations, timed_out, limit_reached,
    matches)``.  ``match_limit`` stops right after the k-th match —
    between two per-node matches by count, inside a frontier chunk by
    its per-survivor enum vector — so ``#enum`` is the search explored
    up to it either way.  ``matches`` is one ``(k, n)`` int64 array
    indexed ``[match, query vertex]`` (``k = 0`` unless ``record``).
    Per-node matches are appended *by position* to one flat list; a
    frontier chunk arrives as an ``(s, n)`` matrix already indexed by
    query vertex.  The flat list becomes a part — its columns moved
    from positions to query vertices — before a taken frame's first
    chunk is appended, so the parts concatenate in DFS order.  No tuple
    is built per match.
    """
    n = len(order)
    search = _bind_depths(context, order, backward)
    counters = EnumerationCounters()
    min_parents = _min_parents(search, backward)
    if min_parents is None:
        walk = walk_prefixes(search, backward, deadline, check_every, counters)
    else:
        walk = walk_prefixes(
            search, backward, deadline, check_every, counters, n - 3, min_parents
        )
    images = search.images
    where = _positions_by_vertex(order)
    flat: list[int] = []
    parts: list[np.ndarray] = []

    def flush() -> None:
        if flat:
            by_position = np.fromiter(flat, np.int64, len(flat)).reshape(-1, n)
            parts.append(by_position[:, where])
            flat.clear()

    found = 0
    limited = False
    final_enum = None
    for W in walk:
        if W is None:
            found += 1
            if record:
                flat.extend(images)
            if match_limit is not None and found >= match_limit:
                # The walk published #enum before suspending, so
                # abandoning it mid-search reports exactly the k-th
                # match's count.
                limited = True
                break
            continue
        flush()
        for matrix, senum in _frontier(
            search, backward, order, W, deadline, check_every, counters, record
        ):
            count = senum.size
            if match_limit is not None and found + count >= match_limit:
                cut = match_limit - found
                found = match_limit
                limited = True
                final_enum = int(senum[cut - 1])
                if record:
                    parts.append(matrix[:cut])
                break
            found += count
            if record:
                parts.append(matrix)
        if limited:
            break
    walk.close()
    flush()
    if final_enum is None:
        final_enum = counters.num_enumerations
    if not parts:
        matches = np.empty((0, n), dtype=np.int64)
    else:
        matches = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return found, final_enum, counters.timed_out, limited, matches
