"""The batch driver, and the bulk frontier it hands big frames to.

:func:`~repro.matching.enumeration_iter.walk_prefixes` spends one Python
interpreter iteration per ``#enum`` step.  Profiling the bench workloads
shows where those steps live: ~78% of all extension attempts happen at
the deepest depth, ~98% at the deepest two, ~99.7% at the deepest three.
This module exploits exactly that shape, and only where it pays.  It
holds no DFS of its own: :func:`enumerate_batch` drains the one walk,
and when the walk opens a frame at position ``n-3`` that is wide enough
it hands the frame over and everything below it — the *parent* level
``A = n-3``, the *row* level ``B = n-2`` and the *leaf* level
``C = n-1`` — is expanded as one batched frontier, its steps charged to
the walk's counters:

* every valid parent's row segment is materialized in one
  :func:`~repro.matching.kernels.gather_segments_into` call over the
  flat ``(positions, offsets, concat)`` edge binding,
* backward-edge constraints become bulk ``searchsorted`` membership
  masks (:func:`~repro.matching.kernels.batch_membership_into`),
* injectivity is one vectorized probe of the dense ``used`` map plus
  ``!=`` masks against the two in-batch ancestor columns
  (:func:`~repro.matching.kernels.batch_unused_into`), and
* leaf candidates for *all* rows are produced in chunked flat batches
  drawn from the growable :class:`ScratchBuffers` batch buffers, so
  peak memory is bounded by the chunk width, not the subtree size.

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
(plan, order), computed before the walk and compared inside it.  A query with fewer than three vertices has no
position ``n-3`` and is walked per node.

**Bit-identity.**  Matches are emitted parent-major, then row-major,
then in ascending leaf order — exactly the DFS lexicographic order —
and ``#enum`` is reconstructed in closed form: every valid parent
charges one step, every valid row charges one step, every surviving
leaf charges one step, all interleaved in DFS order.  A survivor whose
parent has (frontier-local) index ``i``, whose row has flat index ``r``
and which is the ``s``-th survivor of the frontier therefore carries
``enum_start + (i+1) + (r+1) + (s+1)``; vertices skipped by any filter
(membership, ``used``, in-batch ancestors) never charge, matching the
per-node walk, where a used vertex is skipped *before* it counts.
This makes match sequences and ``#enum`` — including under
``match_limit`` truncation, which cuts mid-chunk using the per-survivor
enum vector — the same whichever frames are taken, which is what the
differential suite checks against the recursive oracle with every frame
taken, with none, and at the default.

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
    _positions_by_vertex,
    _Search,
    intersect_sorted,
    walk_prefixes,
)
from repro.matching.kernels import (
    ScratchBuffers,
    batch_membership_into,
    batch_unused_into,
    gather_segments_into,
)

__all__ = [
    "FRONTIER_CHUNK",
    "FRONTIER_MIN_STEPS",
    "enumerate_batch",
]

#: Target number of flat leaf-batch entries processed per chunk.  Small
#: enough that the working set stays cache-friendly and truncation
#: checks stay frequent; large enough to amortize numpy call overhead.
#: A single over-long segment still processes whole (buffers grow), so
#: this is a target, not a hard cap.
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


def _segment(
    binding: tuple[np.ndarray, np.ndarray, np.ndarray], image: int
) -> np.ndarray:
    """One backward neighbour's adjacency list for a concrete image."""
    positions, offsets, concat = binding
    p = positions[image]
    return concat[offsets[p] : offsets[p + 1]]


def _fixed_list(
    segs: list[np.ndarray], base: np.ndarray, used: np.ndarray, filter_used: bool
) -> np.ndarray:
    """Candidate list shared by every row of a frontier level whose
    backward neighbours are all in the (fixed) prefix: the intersection
    of their segments (or the base candidate array when there are
    none), with prefix injectivity applied once up front — used
    vertices never charge, so dropping them early cannot change
    ``#enum``."""
    if not segs:
        arr = base
    else:
        arr = segs[0]
        for other in segs[1:]:
            arr = intersect_sorted(arr, other)
    if filter_used and arr.size:
        arr = arr[~used[arr]]
    return arr


def _level_width(generator, fixed: list[tuple[tuple, int]], base: np.ndarray) -> float:
    """Mean number of candidates one visit of a frontier level scans,
    read off the candidate-space index: the mean segment length of the
    binding that generates the level, or — for a level that hangs off
    the prefix only — of its smallest fixed binding, or the base
    candidate count when it has no backward neighbour at all."""
    bindings = [generator] if generator is not None else [b for b, _ in fixed]
    if not bindings:
        return float(base.size)
    return min(
        concat.size / max(offsets.size - 1, 1) for _, offsets, concat in bindings
    )


class _FrontierBinding:
    """Static shape of the three deepest levels for one (order, backward).

    Splits each level's backward neighbours into the *varying* ones
    (bound to in-batch levels ``A``/``B``) and the *fixed* ones (bound
    to the DFS prefix), and picks the leaf generation strategy:

    - ``c_kind == "B"`` — the leaf has a query edge to the row level;
      leaf candidates are gathered from the per-row segments, with an
      optional per-parent membership sweep when the leaf also binds to
      the parent level (``c_parent``).
    - ``c_kind == "A"`` — the leaf binds to the parent level only; leaf
      candidates are gathered from the per-parent segments, repeated
      per row.
    - ``c_kind == "fixed"`` — the leaf binds only to the prefix (or to
      nothing); one shared list is tiled across rows.

    ``min_parents`` is the narrowest frame worth a frontier call: the
    parent count from which the estimated steps under the frame reach
    :data:`FRONTIER_MIN_STEPS` (see the module docstring).
    """

    __slots__ = (
        "pa",
        "rb",
        "lc",
        "b_var",
        "b_fixed",
        "c_kind",
        "c_gen",
        "c_parent",
        "c_fixed",
        "min_parents",
    )

    def __init__(
        self,
        order: Sequence[int],
        backward: Sequence[Sequence[int]],
        search: _Search,
    ):
        n = len(order)
        bindings = search.bindings
        self.pa = pa = n - 3
        self.rb = rb = n - 2
        self.lc = lc = n - 1
        self.b_var = None
        self.b_fixed: list[tuple[tuple, int]] = []
        for j, pos in enumerate(backward[rb]):
            if pos == pa:
                self.b_var = bindings[rb][j]
            else:
                self.b_fixed.append((bindings[rb][j], pos))
        gen_b = gen_a = None
        self.c_fixed: list[tuple[tuple, int]] = []
        for j, pos in enumerate(backward[lc]):
            if pos == rb:
                gen_b = bindings[lc][j]
            elif pos == pa:
                gen_a = bindings[lc][j]
            else:
                self.c_fixed.append((bindings[lc][j], pos))
        if gen_b is not None:
            self.c_kind = "B"
            self.c_gen = gen_b
            self.c_parent = gen_a
        elif gen_a is not None:
            self.c_kind = "A"
            self.c_gen = gen_a
            self.c_parent = None
        else:
            self.c_kind = "fixed"
            self.c_gen = None
            self.c_parent = None
        rows = _level_width(self.b_var, self.b_fixed, search.base_arrays[rb])
        leaves = _level_width(self.c_gen, self.c_fixed, search.base_arrays[lc])
        self.min_parents = math.ceil(FRONTIER_MIN_STEPS / (1 + rows * (1 + leaves)))


def _frontier(
    fb: _FrontierBinding,
    search: _Search,
    order: Sequence[int],
    W: np.ndarray,
    deadline: float | None,
    check_every: int,
    flags: EnumerationCounters,
    need_matrix: bool,
    scratch: ScratchBuffers,
) -> Iterator[tuple[np.ndarray | None, np.ndarray]]:
    """Bulk-expand levels (A, B, C) under the prefix bound in ``search``;
    ``W`` is the frame the walk handed over — the parent level's local
    candidates, not yet filtered by ``used``.  Yields ``(matrix, senum)``
    per non-empty leaf chunk, drawing its batch buffers from ``scratch``.

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
    base_arrays = search.base_arrays
    pa, rb, lc = fb.pa, fb.rb, fb.lc
    has_prefix = pa > 0  # any depths (hence `used` marks) above the frontier

    W_valid = W[~used[W]] if has_prefix else W
    nW = W_valid.size
    if nW == 0:
        return
    enum = enum_start = flags.num_enumerations
    next_check = (enum // check_every + 1) * check_every
    parents_done = 0
    rows_done = 0
    survs_done = 0

    b_fixed_segs = [_segment(binding, images[pos]) for binding, pos in fb.b_fixed]
    c_fixed_segs = [_segment(binding, images[pos]) for binding, pos in fb.c_fixed]
    if fb.c_kind == "fixed":
        fc_list = _fixed_list(c_fixed_segs, base_arrays[lc], used, has_prefix)
        F_c = fc_list.size

    # ---- parent groups -----------------------------------------------------
    if fb.b_var is not None:
        positions, offsets, concat_b = fb.b_var
        p = positions[W_valid]
        b_starts = offsets[p]
        b_lens = offsets[p + 1] - b_starts
        b_cum = np.cumsum(b_lens)
    else:
        fb_list = _fixed_list(b_fixed_segs, base_arrays[rb], used, has_prefix)
        per_group = max(1, FRONTIER_CHUNK // max(fb_list.size, 1))
    groups = []
    g0 = 0
    while g0 < nW:
        if fb.b_var is not None:
            base_off = int(b_cum[g0 - 1]) if g0 else 0
            g1 = int(np.searchsorted(b_cum, base_off + FRONTIER_CHUNK, side="right"))
            g1 = min(max(g1, g0 + 1), nW)
        else:
            g1 = min(g0 + per_group, nW)
        groups.append((g0, g1))
        g0 = g1

    for g0, g1 in groups:
        # ---- row stage: flat (value, parent) row list --------------------
        k = 0
        W_grp = W_valid[g0:g1]
        nWg = g1 - g0
        if fb.b_var is not None:
            lens_g = b_lens[g0:g1]
            total = int(lens_g.sum())
        else:
            lens_g = fb_list.size  # every parent tiles the one list
            total = nWg * lens_g
        if total:
            vals = scratch.batch("b_vals", total)[:total]
            parent_local = np.repeat(np.arange(nWg, dtype=np.int64), lens_g)
            m = scratch.batch("b_mask", total, np.bool_)[:total]
            if fb.b_var is not None:
                gather_segments_into(concat_b, b_starts[g0:g1], lens_g, vals)
                first = True
                for seg in b_fixed_segs:
                    batch_membership_into(vals, seg, m, accumulate=not first)
                    first = False
                if first:
                    m[:] = True
                t = scratch.batch("b_tmp", total, np.bool_)[:total]
                if has_prefix:
                    batch_unused_into(vals, used, m, t)
                np.not_equal(vals, W_grp[parent_local], out=t)
                np.logical_and(m, t, out=m)
            else:
                # The shared list is already prefix-filtered, so
                # only a row's own parent can still collide.
                v2 = vals.reshape(nWg, lens_g)
                v2[:] = fb_list
                np.not_equal(v2, W_grp[:, None], out=m.reshape(nWg, lens_g))
            k = int(np.count_nonzero(m))
            if k:
                v_flat = scratch.batch("b_keep_v", k)[:k]
                parent_flat = scratch.batch("b_keep_p", k)[:k]
                vals.compress(m, out=v_flat)
                parent_local.compress(m, out=parent_flat)
                wimg = W_grp[parent_flat]

        if k:
            # Absolute DFS charge carried by each row: parents
            # visited up to and including its own (+1 each) plus
            # rows visited up to and including itself.
            row_charge = np.arange(k, dtype=np.int64)
            row_charge += parent_flat + (parents_done + rows_done + 2)

            # ---- leaf stage, chunked -------------------------------------
            if fb.c_kind == "fixed":
                row_step = max(1, FRONTIER_CHUNK // max(F_c, 1))
                bounds = list(range(0, k, row_step)) + [k]
            else:
                # Leaf segments hang off the row ("B") or, failing a
                # query edge to it, off the parent ("A").
                positions, offsets, concat_c = fb.c_gen
                pc = positions[v_flat if fb.c_kind == "B" else wimg]
                c_starts = offsets[pc]
                c_lens = offsets[pc + 1] - c_starts
                c_cum = np.cumsum(c_lens)
                bounds = [0]
                while bounds[-1] < k:
                    r0 = bounds[-1]
                    base_off = int(c_cum[r0 - 1]) if r0 else 0
                    r1 = int(
                        np.searchsorted(c_cum, base_off + FRONTIER_CHUNK, side="right")
                    )
                    bounds.append(min(max(r1, r0 + 1), k))

            for r0, r1 in zip(bounds, bounds[1:]):
                nr = r1 - r0
                if fb.c_kind == "fixed":
                    lens_c = F_c
                    ctotal = nr * F_c
                else:
                    lens_c = c_lens[r0:r1]
                    base_off = int(c_cum[r0 - 1]) if r0 else 0
                    ctotal = int(c_cum[r1 - 1]) - base_off
                if ctotal:
                    cvals = scratch.batch("c_vals", ctotal)[:ctotal]
                    row_of = np.repeat(np.arange(nr, dtype=np.int64), lens_c)
                    cm = scratch.batch("c_mask", ctotal, np.bool_)[:ctotal]
                    t = scratch.batch("c_tmp", ctotal, np.bool_)[:ctotal]
                    if fb.c_kind == "fixed":
                        cvals.reshape(nr, F_c)[:] = fc_list
                        cm[:] = True
                    else:
                        gather_segments_into(concat_c, c_starts[r0:r1], lens_c, cvals)
                        first = True
                        for seg in c_fixed_segs:
                            batch_membership_into(cvals, seg, cm, accumulate=not first)
                            first = False
                        if fb.c_parent is not None:
                            # Leaf binds to both in-batch levels:
                            # sweep the parent-side constraint one
                            # parent at a time — rows (hence
                            # values) are parent-contiguous.
                            pos_a, offs_a, concat_a = fb.c_parent
                            pf = parent_flat[r0:r1]
                            cuts = np.flatnonzero(np.diff(pf)) + 1
                            row_b = np.concatenate(([0], cuts, [nr]))
                            voffs = np.concatenate(([0], np.cumsum(lens_c)))
                            for gi in range(row_b.size - 1):
                                ra = int(row_b[gi])
                                rz = int(row_b[gi + 1])
                                if rz <= ra:
                                    continue
                                w = int(W_grp[pf[ra]])
                                pw = pos_a[w]
                                seg = concat_a[offs_a[pw] : offs_a[pw + 1]]
                                lo = int(voffs[ra])
                                hi = int(voffs[rz])
                                batch_membership_into(
                                    cvals[lo:hi], seg, cm[lo:hi], accumulate=not first
                                )
                            first = False
                        if first:
                            cm[:] = True
                        if has_prefix:
                            batch_unused_into(cvals, used, cm, t)
                    np.not_equal(cvals, wimg[r0:r1][row_of], out=t)
                    np.logical_and(cm, t, out=cm)
                    np.not_equal(cvals, v_flat[r0:r1][row_of], out=t)
                    np.logical_and(cm, t, out=cm)

                    sidx = np.flatnonzero(cm)
                    s = sidx.size
                    if s:
                        r_of_s = row_of[sidx]
                        senum = (
                            row_charge[r0:r1][r_of_s]
                            + (enum_start + survs_done + 1)
                            + np.arange(s, dtype=np.int64)
                        )
                        matrix = None
                        if need_matrix:
                            matrix = np.empty((s, n), dtype=np.int64)
                            for d in range(pa):
                                matrix[:, order[d]] = images[d]
                            matrix[:, order[pa]] = wimg[r0:r1][r_of_s]
                            matrix[:, order[rb]] = v_flat[r0:r1][r_of_s]
                            matrix[:, order[lc]] = cvals[sidx]
                        survs_done += s
                        yield matrix, senum

                # Consistent DFS position after this chunk: all
                # parents up to the last touched row, all rows
                # up to r1, all survivors so far.
                parents_part = parents_done + int(parent_flat[r1 - 1]) + 1
                enum = enum_start + parents_part + (rows_done + r1) + survs_done
                flags.num_enumerations = enum
                if deadline is not None and enum >= next_check:
                    next_check = (enum // check_every + 1) * check_every
                    if perf_counter() > deadline:
                        flags.timed_out = True
                        return

        parents_done += nWg
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
    scratch: ScratchBuffers,
) -> tuple[int, int, bool, bool, np.ndarray]:
    """The batch driver: drain the walk; returns raw counters, not a
    result.

    Parameters mirror one :meth:`Enumerator.run_context` invocation
    after its shared validation: ``context`` carries the instance (its
    :class:`CandidateSpace` is built on first access when the engine
    runs standalone; ``Matcher.plan`` pre-builds it in Phase (1)),
    ``backward`` lists backward-neighbour *positions* per position in
    ``order``, and ``deadline`` is an absolute ``time.perf_counter``
    timestamp.  ``scratch`` holds the frontier's batch buffers and may
    be reused across queries (the caller must not share it between
    concurrent runs).

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
    if n >= 3:
        fb = _FrontierBinding(order, backward, search)
        walk = walk_prefixes(
            search, backward, deadline, check_every, counters, fb.pa, fb.min_parents
        )
    else:
        # No position n-3: nothing is handed over, `fb` is never read.
        fb = None
        walk = walk_prefixes(search, backward, deadline, check_every, counters)
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
            fb, search, order, W, deadline, check_every, counters, record, scratch
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
