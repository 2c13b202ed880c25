"""Recorded embeddings as one array: :class:`MatchBlock`.

The paper's output is the embedding set (Def. II.5), and a batch run
that records it holds ``k`` embeddings of an ``n``-vertex query — up to
10^5 of them.  The engine produces that set as numbers in arrays, and
the serving path only ever moves it: re-index the columns into the
client's vertex numbering, hand nested lists to ``json.dumps``.  None
of that needs a Python object per embedding, let alone per image, so
the set is stored the way it is produced — one
read-only ``(k, n)`` int64 array — from the end of the search to the
encoder.  The tuples callers read (``result.matches[0]``, iteration,
``==`` against a tuple of tuples) are derived from the array on first
use and cached.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

__all__ = ["MatchBlock"]


class MatchBlock(Sequence):
    """``k`` embeddings of an ``n``-vertex query, stored as one array.

    ``array[i, u]`` is the image of query vertex ``u`` in the ``i``-th
    embedding.  The array is what is stored, and it is read-only: plans'
    results and responses are shared across threads.  Everything a
    caller could do with the tuple of tuples this replaces still works —
    ``len``, indexing, iteration, ``==`` against a tuple (or list) of
    tuples, hashing — over a tuple view built once, on first use; a
    slice is another block over a view of the same array.

    ``MatchBlock(matches)`` accepts an ``(k, n)`` integer array (taken
    over, not copied, when it already is int64), any sequence of
    equal-length integer sequences, or a block, which is returned as it
    is.  No embeddings at all is the ``(0, 0)`` block whatever ``n``
    was, so it equals ``()``; the empty query's single empty embedding
    is ``(1, 0)`` and equals ``((),)``.  Anything that is not a
    rectangle of integers raises ``ValueError`` or ``TypeError``
    (``OverflowError`` past 64 bits).

    >>> block = MatchBlock([(4, 7, 9), (4, 8, 9)])
    >>> block[1], len(block), block == ((4, 7, 9), (4, 8, 9))
    ((4, 8, 9), 2, True)
    >>> block.gather((2, 0, 1)).tolist()
    [[9, 4, 7], [9, 4, 8]]
    """

    __slots__ = ("array", "_rows")

    def __new__(cls, matches=()) -> "MatchBlock":
        if isinstance(matches, cls):
            return matches
        array = np.asarray(matches, dtype=np.int64)
        if array.ndim == 1 and not array.size:
            array = array.reshape(0, 0)
        if array.ndim != 2:
            raise ValueError(
                f"embeddings must form a (k, n) block, got shape {array.shape}"
            )
        array.setflags(write=False)
        self = super().__new__(cls)
        self.array = array
        self._rows = None
        return self

    def _tuples(self) -> tuple[tuple[int, ...], ...]:
        """The derived view; racing threads build equal tuples."""
        rows = self._rows
        if rows is None:
            rows = self._rows = tuple(map(tuple, self.array.tolist()))
        return rows

    def gather(self, columns: Sequence[int]) -> "MatchBlock":
        """Re-index every embedding at once: column ``u`` of the result
        is column ``columns[u]`` of this block (one numpy gather)."""
        if not len(self.array):
            return self
        return MatchBlock(self.array[:, columns])

    def tolist(self) -> list[list[int]]:
        """Nested lists of Python ``int``s — the JSON shape."""
        return self.array.tolist()

    def __len__(self) -> int:
        return len(self.array)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return MatchBlock(self.array[index])
        return self._tuples()[index]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._tuples())

    def __eq__(self, other) -> bool:
        if isinstance(other, MatchBlock):
            mine, theirs = self.array, other.array
            return len(mine) == len(theirs) and (
                not len(mine) or np.array_equal(mine, theirs)
            )
        if isinstance(other, (tuple, list)):
            return self._tuples() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuples())

    def __repr__(self) -> str:
        return repr(self._tuples())
