"""Allocation-free set-intersection kernels for the DFS hot path.

The enumeration engine computes one local candidate list per
extension attempt — millions of times per query on real workloads.  The
pre-kernel loop allocated on every single node: ``np.intersect1d`` built
(and sorted) a fresh result array, the injectivity filter
``arr[~used[arr]]`` materialized three temporaries, and ``arr.tolist()``
copied the survivors into a Python list.  This module replaces all of
that with kernels that write into scratch buffers owned by a
:class:`ScratchBuffers` object sized **once per query**:

* :func:`intersect_into` — intersection of two sorted unique arrays via
  a vectorized gallop (binary-search the smaller side into the larger),
  written into a caller-supplied buffer.  No sort, no result
  allocation; the one unavoidable temporary is ``searchsorted``'s index
  vector over the *smaller* input.
* :func:`intersect_unused_into` — the same gallop with the injectivity
  filter fused into the final write: the membership mask and the
  ``used`` mask combine before a single compress, so the intermediate
  "intersected but not yet filtered" array never exists.  This is the
  last step of every multi-backward-neighbour depth.
* :func:`filter_unused_into` — the standalone fused injectivity write,
  for callers that need a used-filtered copy of one sorted array.

Depths with zero or one backward neighbour need no kernel at all: their
local candidate list is a zero-copy *view* (the base candidate array,
or one ``(offsets, concat)`` slice of the flat per-edge index), and the
DFS driver applies injectivity per visit — one bool probe against the
dense ``used`` map, exactly Algorithm 2's injectivity check, with used
vertices skipped before they count towards ``#enum``.  ``used`` is
constant while one depth's sibling loop runs, so per-visit probing and
list-build-time filtering admit the same candidates in the same order.

All kernels return the number of values written; the caller reads
``out[:length]``.  Output buffers must not alias the inputs (the
enumeration engine guarantees this by construction: candidate buffers
are per depth, ping-pong temporaries alternate).  The DFS cursors walk
the numpy views/buffers directly — the per-node ``tolist()``
materialization is gone entirely.

The bulk frontier (``enumeration_batch.py``) adds three
batched kernels on top: :func:`gather_segments_into` concatenates many
``(offsets, concat)`` segments into one flat batch in a single gather,
:func:`batch_membership_into` is the batched form of one
:func:`intersect_into` step (it produces the membership *mask* instead
of compressing, so several constraints AND together before one
compress), and :func:`batch_unused_into` is the batched injectivity
probe.  Their scratch comes from the same :class:`ScratchBuffers`
object via named growable batch buffers, so the peak batch footprint
is visible next to the per-depth capacities.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ScratchBuffers",
    "batch_membership_into",
    "batch_unused_into",
    "filter_unused_into",
    "gather_segments_into",
    "intersect_into",
    "intersect_unused_into",
]


def intersect_into(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, mask: np.ndarray | None = None
) -> int:
    """Write ``a ∩ b`` into ``out``; return the number of values written.

    ``a`` and ``b`` are sorted arrays of unique int64 vertex ids; the
    result (also sorted unique) lands in ``out[:returned length]``, so
    ``out`` must hold at least ``min(a.size, b.size)`` values and must
    not alias either input.  The kernel gallops: the smaller side is
    binary-searched into the larger (``O(s · log L)``), which beats
    ``np.intersect1d``'s concatenate-and-sort at every size ratio the
    enumeration produces and never allocates a result array.  ``mask``
    is an optional reusable bool scratch of at least ``min(a.size,
    b.size)`` entries; omitted, a temporary is allocated.
    """
    if a.size > b.size:
        a, b = b, a
    n = a.size
    if n == 0 or b.size == 0:
        return 0
    idx = b.searchsorted(a)
    np.minimum(idx, b.size - 1, out=idx)
    m = mask[:n] if mask is not None else np.empty(n, dtype=bool)
    np.equal(b[idx], a, out=m)
    k = int(np.count_nonzero(m))
    if k:
        a.compress(m, out=out[:k])
    return k


def filter_unused_into(
    arr: np.ndarray,
    used: np.ndarray,
    out: np.ndarray,
    mask: np.ndarray | None = None,
) -> int:
    """Write the entries of ``arr`` whose ``used`` flag is False into ``out``.

    The injectivity filter of Algorithm 2 Line 6, fused with the final
    candidate write: one gather into the bool scratch, one in-place
    negation, one compress into ``out`` — no intermediate copy of the
    unfiltered list.  ``used`` is the dense per-data-vertex bool map;
    ``out`` needs ``arr.size`` capacity and must not alias ``arr``.
    Returns the number of survivors.
    """
    n = arr.size
    if n == 0:
        return 0
    m = mask[:n] if mask is not None else np.empty(n, dtype=bool)
    used.take(arr, out=m)
    np.logical_not(m, out=m)
    k = int(np.count_nonzero(m))
    if k:
        arr.compress(m, out=out[:k])
    return k


def intersect_unused_into(
    a: np.ndarray,
    b: np.ndarray,
    used: np.ndarray,
    out: np.ndarray,
    mask: np.ndarray | None = None,
    mask2: np.ndarray | None = None,
) -> int:
    """Write ``{v ∈ a ∩ b : not used[v]}`` into ``out``; return the count.

    The fused tail of a multi-backward-neighbour depth: the last
    intersection and the injectivity filter combine into one mask and
    one compress, so the intersected-but-unfiltered array never
    materializes.  ``mask`` / ``mask2`` are independent bool scratches
    (membership and injectivity bits respectively); contracts otherwise
    as in :func:`intersect_into`.
    """
    if a.size > b.size:
        a, b = b, a
    n = a.size
    if n == 0 or b.size == 0:
        return 0
    idx = b.searchsorted(a)
    np.minimum(idx, b.size - 1, out=idx)
    m = mask[:n] if mask is not None else np.empty(n, dtype=bool)
    np.equal(b[idx], a, out=m)
    m2 = mask2[:n] if mask2 is not None else np.empty(n, dtype=bool)
    used.take(a, out=m2)
    np.logical_not(m2, out=m2)
    np.logical_and(m, m2, out=m)
    k = int(np.count_nonzero(m))
    if k:
        a.compress(m, out=out[:k])
    return k


def gather_segments_into(
    concat: np.ndarray,
    starts: np.ndarray,
    lens: np.ndarray,
    out: np.ndarray,
) -> int:
    """Concatenate ``concat[starts[i] : starts[i] + lens[i]]`` for all ``i``.

    The batched segment gather of the bulk frontier: one
    ``np.take`` materializes every row's adjacency segment of a flat
    ``(offsets, concat)`` edge binding into ``out`` back to back,
    replacing one Python-level slice per row.  ``starts`` / ``lens``
    are int64 arrays of equal length; ``out`` needs ``lens.sum()``
    capacity.  Returns the total number of values written.  Segment
    values keep their per-segment sorted order, which is exactly the
    DFS sibling order.
    """
    total = int(lens.sum())
    if total == 0:
        return 0
    idx = np.arange(total, dtype=np.int64)
    # Shift each output slot by (segment start - running offset) so the
    # flat arange walks every segment in place: one repeat, one add.
    offs = np.cumsum(lens) - lens
    idx += np.repeat(starts - offs, lens)
    np.take(concat, idx, out=out[:total])
    return total


def batch_membership_into(
    vals: np.ndarray,
    reference: np.ndarray,
    out: np.ndarray,
    accumulate: bool = False,
) -> None:
    """Write (or AND in) ``vals[i] ∈ reference`` into ``out[: vals.size]``.

    The batched counterpart of one :func:`intersect_into` step:
    ``reference`` is one sorted unique segment shared by every value in
    the batch, and the kernel produces the membership *mask* rather
    than compressing, so several backward-edge constraints combine
    before a single compress.  With ``accumulate`` the mask ANDs into
    ``out`` instead of overwriting it.
    """
    n = vals.size
    if n == 0:
        return
    m = out[:n]
    if reference.size == 0:
        m[:] = False
        return
    idx = reference.searchsorted(vals)
    np.minimum(idx, reference.size - 1, out=idx)
    if accumulate:
        hit = np.equal(reference[idx], vals)
        np.logical_and(m, hit, out=m)
    else:
        np.equal(reference[idx], vals, out=m)


def batch_unused_into(
    vals: np.ndarray,
    used: np.ndarray,
    out: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """AND ``not used[vals[i]]`` into ``out[: vals.size]``.

    The batched injectivity probe: one gather from the dense ``used``
    map, one negation, one AND — the vectorized form of the per-visit
    ``used[v]`` check, applied to a whole frontier at once.  ``tmp`` is
    a bool scratch of at least ``vals.size`` entries.
    """
    n = vals.size
    if n == 0:
        return
    t = tmp[:n]
    used.take(vals, out=t)
    np.logical_not(t, out=t)
    np.logical_and(out[:n], t, out=out[:n])


class ScratchBuffers:
    """Per-query scratch for the DFS, sized once in binding.

    ``cand[i]`` is depth ``i``'s candidate buffer: when depth ``i`` has
    two or more backward neighbours, its intersected candidate list
    lives here while every deeper frame runs, so these are strictly per
    depth (zero/one-backward depths walk zero-copy views instead and get
    a zero-capacity slot).  ``tmp_a`` / ``tmp_b`` are the two ping-pong
    buffers that multi-backward-neighbour depths intersect through
    (transient within one local-candidate computation, hence shared
    across depths), and ``mask`` / ``mask2`` are the shared bool
    scratches the kernels filter through.  Capacities come from the
    per-depth bounds computed by ``_bind_depths`` (the smallest backward
    neighbour's longest adjacency list — smallest-first intersection can
    never produce more), so no kernel call can overrun.

    A ``ScratchBuffers`` object is reusable across queries:
    :meth:`ensure_depths` re-binds the same object to a new query's
    capacities, growing geometrically and never shrinking, so a
    ``Matcher`` serving queries of varying sizes touches the allocator
    a bounded number of times instead of once per query.  The
    bulk frontier additionally draws named growable batch
    buffers from :meth:`batch`; ``peak_nbytes`` reports the high-water
    footprint across everything, which is how the bench makes the
    batch-width memory cost visible.
    """

    __slots__ = ("cand", "tmp_a", "tmp_b", "mask", "mask2", "_batch", "_peak_nbytes")

    def __init__(self, depth_capacities: list[int]):
        self.cand = [np.empty(c, dtype=np.int64) for c in depth_capacities]
        cap = max(depth_capacities, default=0)
        self.tmp_a = np.empty(cap, dtype=np.int64)
        self.tmp_b = np.empty(cap, dtype=np.int64)
        self.mask = np.empty(cap, dtype=bool)
        self.mask2 = np.empty(cap, dtype=bool)
        self._batch: dict[str, np.ndarray] = {}
        self._peak_nbytes = 0
        self._note_peak()

    def ensure_depths(self, depth_capacities: list[int]) -> "ScratchBuffers":
        """Re-bind this object to a new query, growing buffers as needed.

        Existing buffers are kept whenever they are already large
        enough; a buffer that must grow jumps to at least double its
        current size (geometric growth — a rising sequence of query
        sizes costs amortized O(1) reallocations per query, not one per
        query).  Nothing ever shrinks, so ``nbytes`` is monotone over
        the object's lifetime.  Returns ``self``.
        """
        for i, c in enumerate(depth_capacities):
            if i >= len(self.cand):
                self.cand.append(np.empty(c, dtype=np.int64))
            elif self.cand[i].size < c:
                self.cand[i] = np.empty(max(c, 2 * self.cand[i].size), dtype=np.int64)
        cap = max(depth_capacities, default=0)
        if self.tmp_a.size < cap:
            grown = max(cap, 2 * self.tmp_a.size)
            self.tmp_a = np.empty(grown, dtype=np.int64)
            self.tmp_b = np.empty(grown, dtype=np.int64)
            self.mask = np.empty(grown, dtype=bool)
            self.mask2 = np.empty(grown, dtype=bool)
        self._note_peak()
        return self

    def batch(self, name: str, size: int, dtype: type = np.int64) -> np.ndarray:
        """Return the named growable batch buffer with ≥ ``size`` capacity.

        Batch buffers back the bulk frontier's flat ``(B, k)``
        scratch (candidate values, row indices, masks).  Growth is
        geometric with a floor, so a frontier loop over thousands of
        chunks reallocates a handful of times at most.  The caller
        slices ``[:size]``; contents are undefined on entry.
        """
        buf = self._batch.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            grown = max(size, 0 if buf is None else 2 * buf.size, 1024)
            buf = np.empty(grown, dtype=dtype)
            self._batch[name] = buf
            self._note_peak()
        return buf

    def nbytes(self) -> int:
        """Total scratch footprint (candidate + ping-pong + mask + batch)."""
        return (
            sum(buf.nbytes for buf in self.cand)
            + self.tmp_a.nbytes
            + self.tmp_b.nbytes
            + self.mask.nbytes
            + self.mask2.nbytes
            + sum(buf.nbytes for buf in self._batch.values())
        )

    @property
    def peak_nbytes(self) -> int:
        """High-water ``nbytes`` over this object's lifetime.

        Buffers never shrink, so within one query this is monotone
        non-decreasing; across reuse it records the widest frontier any
        query ever needed.
        """
        return self._peak_nbytes

    def _note_peak(self) -> None:
        total = self.nbytes()
        if total > self._peak_nbytes:
            self._peak_nbytes = total
