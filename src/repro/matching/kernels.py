"""Batched kernels of the bulk frontier, and the scratch they write into.

The per-node walk (:mod:`repro.matching.enumeration_iter`) needs no
kernel: it memoizes each depth's local candidates as Python lists.
Below a frame it hands over, the bulk frontier
(:mod:`repro.matching.enumeration_batch`) works on whole batches, and
these are its building blocks:

* :func:`gather_segments_into` concatenates many ``(offsets, concat)``
  segments into one flat batch in a single gather;
* :func:`batch_membership_into` tests a whole batch against one sorted
  segment and produces the membership *mask* instead of compressing, so
  several backward-edge constraints AND together before one compress;
* :func:`batch_unused_into` is the batched injectivity probe against
  the dense ``used`` map.

They write into named growable buffers drawn from one
:class:`ScratchBuffers` object per thread, so the peak batch footprint
is visible and bounded by the chunk width, not the subtree size.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ScratchBuffers",
    "batch_membership_into",
    "batch_unused_into",
    "gather_segments_into",
]


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

    The batched counterpart of one sorted-set intersection:
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
    """The bulk frontier's named growable batch buffers.

    One object per thread, reused across queries: :meth:`batch` hands
    out a buffer that grows geometrically and never shrinks, so a
    ``Matcher`` serving queries of varying sizes touches the allocator
    a bounded number of times instead of once per frame.
    ``peak_nbytes`` reports the high-water footprint, which is how the
    bench makes the batch-width memory cost visible.
    """

    __slots__ = ("_batch", "_peak_nbytes")

    def __init__(self) -> None:
        self._batch: dict[str, np.ndarray] = {}
        self._peak_nbytes = 0

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
            self._peak_nbytes = max(self._peak_nbytes, self.nbytes())
        return buf

    def nbytes(self) -> int:
        """Total footprint of the batch buffers."""
        return sum(buf.nbytes for buf in self._batch.values())

    @property
    def peak_nbytes(self) -> int:
        """High-water ``nbytes`` over this object's lifetime.

        Buffers never shrink, so this is monotone non-decreasing and,
        across reuse, records the widest frontier any query ever needed.
        """
        return self._peak_nbytes
