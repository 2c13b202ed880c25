"""Bulk frontier for the three deepest levels (the ``"vectorized"`` strategy).

At ``stop = n`` the one DFS
(:func:`~repro.matching.enumeration_iter.walk_prefixes`) spends one
Python interpreter iteration per ``#enum`` step.  Profiling the bench
workloads shows where those steps live: ~78% of all extension attempts
happen at the deepest depth, ~98% at the deepest two, ~99.7% at the
deepest three, and the average subtree hanging off one depth-``n-3``
node is ~400 steps wide.  This module exploits exactly that shape.  It
holds no DFS of its own: it runs the same walk at
``stop = max(n - 3, 0)``, and under each prefix the walk yields,
everything below — the *parent* level ``A = n-3``, the *row* level
``B = n-2``, and the *leaf* level ``C = n-1`` — is expanded as one
batched frontier, its steps charged to the walk's counters:

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
enum vector — bit-identical to ``"iterative"`` (and to the recursive
oracle the test suite pins both strategies against).

Timeout checks keep the per-node walk's cadence contract (a check
whenever ``#enum`` crosses a multiple of ``check_every``) but fire at
chunk granularity inside the frontier; timeout *outcomes* are
wall-clock-dependent at every ``stop``, so only the flag, not the
truncation point, is comparable.

:func:`enumerate_vectorized` mirrors :func:`enumerate_iterative`'s
signature and return; :func:`enumerate_lazy_vectorized` is the
generator twin that lets ``MatchStream`` ride the batched core while
publishing exact per-match counters.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence

import numpy as np

from repro.matching.context import MatchingContext
from repro.matching.enumeration_iter import (
    EnumerationCounters,
    _bind_depths,
    _local_candidates,
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
    "enumerate_lazy_vectorized",
    "enumerate_vectorized",
]

#: Target number of flat leaf-batch entries processed per chunk.  Small
#: enough that the working set stays cache-friendly and truncation
#: checks stay frequent; large enough to amortize numpy call overhead.
#: A single over-long segment still processes whole (buffers grow), so
#: this is a target, not a hard cap.
FRONTIER_CHUNK = 1 << 16


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
    """

    __slots__ = (
        "pa", "rb", "lc", "b_var", "b_fixed", "c_kind", "c_gen", "c_parent", "c_fixed"
    )

    def __init__(
        self,
        order: Sequence[int],
        backward: Sequence[Sequence[int]],
        bindings: list[list[tuple[np.ndarray, np.ndarray, np.ndarray]]],
    ):
        n = len(order)
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


def _enumerate_chunks(
    context: MatchingContext,
    order: Sequence[int],
    backward: Sequence[Sequence[int]],
    deadline: float | None,
    check_every: int,
    flags: EnumerationCounters,
    need_matrix: bool,
    scratch: ScratchBuffers | None,
) -> Iterator[tuple[np.ndarray | None, np.ndarray]]:
    """Core driver: yields ``(matrix, senum)`` per non-empty leaf chunk.

    ``matrix`` is an ``(s, n)`` int64 array of embeddings indexed by
    query vertex (``None`` when ``need_matrix`` is false); ``senum`` is
    the exact DFS ``#enum`` value at each of the ``s`` matches, in
    order.  Both are freshly allocated per chunk, so consumers may hold
    them across pulls.  On every way out of the frame, ``flags``
    carries the final ``#enum`` and the timeout flag.
    """
    n = len(order)
    perf_counter = time.perf_counter
    search = _bind_depths(context, order, backward, scratch)
    images, used = search.images, search.used
    base_arrays, scratch = search.base_arrays, search.scratch
    # The one DFS binds everything above the frontier; this consumer
    # charges what it expands below each prefix straight into ``flags``,
    # which the walk re-reads when it resumes.
    walk = walk_prefixes(search, backward, deadline, check_every, flags, max(n - 3, 0))

    if n == 1:
        # Every root candidate is a match; used is empty and there
        # are no backward edges, so the whole query is one bulk op.
        base = base_arrays[0]
        for _ in walk:
            for lo in range(0, base.size, FRONTIER_CHUNK):
                vals = base[lo : lo + FRONTIER_CHUNK]
                senum = np.arange(vals.size, dtype=np.int64)
                senum += flags.num_enumerations + 1
                matrix = None
                if need_matrix:
                    matrix = vals.astype(np.int64).reshape(-1, 1)
                flags.num_enumerations += vals.size
                yield matrix, senum
        return

    fb = _FrontierBinding(order, backward, search.bindings)
    pa, rb, lc = fb.pa, fb.rb, fb.lc
    has_prefix = n >= 4  # any depths (hence `used` marks) above the frontier

    def frontier(W: np.ndarray | None) -> Iterator:
        """Bulk-expand levels (A, B, C) under the current prefix."""
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

        # ---- parent groups -------------------------------------------------
        if W is not None:
            W_valid = W[~used[W]] if has_prefix else W
            nW = W_valid.size
            if nW == 0:
                return
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
                    g1 = int(
                        np.searchsorted(b_cum, base_off + FRONTIER_CHUNK, side="right")
                    )
                    g1 = min(max(g1, g0 + 1), nW)
                else:
                    g1 = min(g0 + per_group, nW)
                groups.append((g0, g1))
                g0 = g1
        else:
            # n == 2: the row level is the root — no backward edges,
            # no prefix, every base candidate is a valid row.
            groups = [(0, 0)]

        for g0, g1 in groups:
            # ---- row stage: flat (value, parent) row list ----------------
            k = 0
            v_flat = parent_flat = wimg = None
            if W is None:
                v_flat = base_arrays[rb]
                k = v_flat.size
            else:
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
                if parent_flat is not None:
                    row_charge += parent_flat + (parents_done + rows_done + 2)
                else:
                    row_charge += rows_done + 1

                # ---- leaf stage, chunked ---------------------------------
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
                            np.searchsorted(
                                c_cum, base_off + FRONTIER_CHUNK, side="right"
                            )
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
                            gather_segments_into(
                                concat_c, c_starts[r0:r1], lens_c, cvals
                            )
                            first = True
                            for seg in c_fixed_segs:
                                batch_membership_into(
                                    cvals, seg, cm, accumulate=not first
                                )
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
                                        cvals[lo:hi],
                                        seg,
                                        cm[lo:hi],
                                        accumulate=not first,
                                    )
                                first = False
                            if first:
                                cm[:] = True
                            if has_prefix:
                                batch_unused_into(cvals, used, cm, t)
                        if wimg is not None:
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
                                for d in range(max(pa, 0)):
                                    matrix[:, order[d]] = images[d]
                                if wimg is not None:
                                    matrix[:, order[pa]] = wimg[r0:r1][r_of_s]
                                matrix[:, order[rb]] = v_flat[r0:r1][r_of_s]
                                matrix[:, order[lc]] = cvals[sidx]
                            survs_done += s
                            yield matrix, senum

                    # Consistent DFS position after this chunk: all
                    # parents up to the last touched row, all rows
                    # up to r1, all survivors so far.
                    parents_part = 0
                    if parent_flat is not None:
                        parents_part = parents_done + int(parent_flat[r1 - 1]) + 1
                    enum = enum_start + parents_part + (rows_done + r1) + survs_done
                    flags.num_enumerations = enum
                    if deadline is not None and enum >= next_check:
                        next_check = (enum // check_every + 1) * check_every
                        if perf_counter() > deadline:
                            flags.timed_out = True
                            return

            if W is not None:
                parents_done += g1 - g0
            rows_done += k
            enum = enum_start + parents_done + rows_done + survs_done
            flags.num_enumerations = enum
            if deadline is not None and enum >= next_check:
                next_check = (enum // check_every + 1) * check_every
                if perf_counter() > deadline:
                    flags.timed_out = True
                    return

    for _ in walk:
        # n == 2 has no parent level: the row level is the root.
        yield from frontier(_local_candidates(search, backward, pa) if n >= 3 else None)


def enumerate_vectorized(
    context: MatchingContext,
    order: Sequence[int],
    backward: Sequence[Sequence[int]],
    match_limit: int | None,
    deadline: float | None,
    check_every: int,
    record: bool,
    scratch: ScratchBuffers | None = None,
) -> tuple[int, int, bool, bool, np.ndarray]:
    """Batch driver; signature and return mirror ``enumerate_iterative``.

    Consumes the chunked core and applies ``match_limit`` exactly: a
    limit hit mid-chunk truncates using the per-survivor enum vector,
    so the reported ``#enum`` is the value the per-node DFS would have
    stopped at.  The recorded matches are the chunks' ``(s, n)``
    matrices themselves — already indexed ``[match, query vertex]`` —
    concatenated into one ``(k, n)`` int64 array (``k = 0`` unless
    ``record``) and returned as that.  ``scratch`` optionally reuses one
    :class:`ScratchBuffers` across queries (the caller must not share
    it between concurrent runs).
    """
    flags = EnumerationCounters()
    inner = _enumerate_chunks(
        context, order, backward, deadline, check_every, flags, record, scratch
    )
    found = 0
    limited = False
    final_enum = None
    parts: list[np.ndarray] = []
    for matrix, senum in inner:
        count = senum.size
        if match_limit is not None and found + count >= match_limit:
            cut = match_limit - found
            found = match_limit
            limited = True
            final_enum = int(senum[cut - 1])
            if record:
                parts.append(matrix[:cut])
            inner.close()
            break
        found += count
        if record:
            parts.append(matrix)
    if final_enum is None:
        final_enum = flags.num_enumerations
    if not parts:
        matches = np.empty((0, len(order)), dtype=np.int64)
    else:
        matches = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return found, final_enum, flags.timed_out, limited, matches


def enumerate_lazy_vectorized(
    context: MatchingContext,
    order: Sequence[int],
    backward: Sequence[Sequence[int]],
    deadline: float | None,
    check_every: int,
    counters: EnumerationCounters,
) -> Iterator[tuple[int, ...]]:
    """Generator twin over the batched core; yields embeddings.

    Same contract as ``enumerate_lazy``: ``counters`` is refreshed with
    the exact DFS ``#enum`` before every yield, and on every way out of
    the frame — so a consumer that stops after ``k`` pulls observes
    precisely the counters a batch run with ``match_limit=k`` reports,
    even though whole chunks are computed ahead of the pulls.
    """
    flags = EnumerationCounters()
    inner = _enumerate_chunks(
        context, order, backward, deadline, check_every, flags, True, None
    )
    try:
        for matrix, senum in inner:
            for enum, row in zip(senum.tolist(), matrix.tolist()):
                counters.num_enumerations = enum
                yield tuple(row)
        # Only a walk that ran to its end (or its deadline) has charged
        # steps past the last match; a close() between pulls skips this.
        counters.num_enumerations = flags.num_enumerations
    finally:
        inner.close()
        counters.timed_out = flags.timed_out
