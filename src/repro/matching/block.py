"""Recorded embeddings as one array: :class:`MatchBlock`.

The paper's output is the embedding set (Def. II.5), and a batch run
that records it holds ``k`` embeddings of an ``n``-vertex query — up to
10^5 of them.  The engine produces that set as numbers in arrays, and
the serving path only ever moves it: re-index the columns into the
client's vertex numbering, print the array as JSON text
(:meth:`MatchBlock.to_json`, a table-driven kernel over the array).
None of that needs a Python object per embedding, let alone per image,
so the set is stored the way it is produced — one read-only ``(k, n)``
int64 array — from the end of the search to the socket.  The tuples
callers read (``result.matches[0]``, iteration, ``==`` against a tuple
of tuples) are derived from the array on first use and cached.
"""

from __future__ import annotations

import array as pyarray
import struct
from collections.abc import Iterator, Sequence
from itertools import chain

import numpy as np

__all__ = ["MatchBlock"]


def _word(text: bytes) -> np.uint32:
    """Up to four bytes of text, NUL-padded, as one native ``uint32``."""
    return np.frombuffer(text.ljust(4, b"\0"), np.uint32)[0]


def _digit_table() -> np.ndarray:
    """The text of ``0…9999`` as one 4-byte word each, twice over.

    Entry ``v`` is ``v`` zero-padded to four digits (a group below the
    leading one: ``"0042"``); entry ``10_000 + v`` is ``v`` with its
    leading zeros turned into NUL bytes (a leading group: ``"\\0\\042"``,
    and ``"\\0\\0\\00"`` for zero).  NUL is the byte :meth:`to_json`
    drops.  Filled in place, a digit place at a time.
    """
    table = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        table[..., place] = digits.reshape((10,) + (1,) * (3 - place))
    bare = table[1].reshape(10_000, 4)
    for place in range(3):
        bare[: 10 ** (3 - place), place] = 0
    return table.reshape(-1).view(np.uint32)


_DIGITS = _digit_table()
_LEADING = 10_000
_MINUS = _word(b"\0\0\0-")
#: What follows an image: the next one in its row, the next row, the end.
_NEXT, _NEXT_ROW, _END = _word(b", "), _word(b"], ["), _word(b"]]")


def _from_rows(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Equal-length sequences of integers as one ``(k, n)`` int64 array.

    The images are packed as native ``q`` words in one ``struct.pack``
    call, which takes integers only — Python's, numpy's, anything with
    ``__index__``.  What it refuses is copied again through an
    ``array("q")``, whose error names the cause: a float, string or
    object image is a ``TypeError`` and one past int64 an
    ``OverflowError``.  A bool is an ``int`` to both, so a block whose
    first image is one is refused by name.
    """
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise ValueError(
            f"embeddings must form a (k, n) block, got rows of {sorted(widths)} images"
        )
    width = widths.pop() if widths else 0
    try:
        images = struct.pack(f"{len(rows) * width}q", *chain.from_iterable(rows))
    except struct.error:
        try:
            images = pyarray.array("q", list(chain.from_iterable(rows)))
        except TypeError as exc:
            raise TypeError(f"embeddings must be integers: {exc}") from None
    if images and type(rows[0][0]) is bool:
        raise TypeError("embeddings must be integers, got bool elements")
    return np.frombuffer(images, np.int64).reshape(len(rows), width)


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
    is ``(1, 0)`` and equals ``((),)``.  Rows of unequal lengths, or an
    array that is not two-dimensional, raise ``ValueError``; an element
    that is not an integer raises ``TypeError`` — a float, string,
    sequence or other object, an array of any such dtype or of bools, or
    a sequence that starts with a bool (a bool further in reads as the
    integer it is) — and one past int64 ``OverflowError``.

    >>> block = MatchBlock([(4, 7, 9), (4, 8, 9)])
    >>> block[1], len(block), block == ((4, 7, 9), (4, 8, 9))
    ((4, 8, 9), 2, True)
    >>> block.gather((2, 0, 1)).tolist()
    [[9, 4, 7], [9, 4, 8]]
    >>> block.to_json()
    b'[[4, 7, 9], [4, 8, 9]]'
    """

    __slots__ = ("array", "_rows")

    def __new__(cls, matches=()) -> "MatchBlock":
        if isinstance(matches, cls):
            return matches
        if not isinstance(matches, np.ndarray):
            array = _from_rows(matches)
        elif matches.dtype == np.int64:
            array = matches
        elif matches.size and not np.issubdtype(matches.dtype, np.integer):
            raise TypeError(
                f"embeddings must be integers, got {matches.dtype} elements"
            )
        elif matches.size and matches.max() > np.iinfo(np.int64).max:
            raise OverflowError("embedding image past the int64 range")
        else:
            array = matches.astype(np.int64)
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

    def to_json(self) -> bytes:
        """``json.dumps(self.tolist()).encode()``, printed from the array.

        Every image becomes a few 4-byte words of text looked up in a
        digit table — an optional ``-``, one word per four digits (one
        in all for images below 10^4), and the separator after it
        (``", "``, ``"], ["`` or the closing ``"]]"``) — with NUL bytes
        wherever the text is shorter than its words.  Dropping the NULs
        (one ``bytes.translate``) leaves the JSON text.  Only a loop over
        the at most five digit groups of an int64 runs in Python.
        """
        k, n = self.array.shape
        if not k:
            return b"[]"
        if not n:
            return b"[" + b"[], " * (k - 1) + b"[]]"
        images = self.array.reshape(-1)
        negative = images < 0
        signed = bool(negative.any())
        # Magnitudes as uint64, where -2**63 still fits.
        magnitude = images.astype(np.uint64)
        if signed:
            np.negative(magnitude, out=magnitude, where=negative)
        top, groups = int(magnitude.max()) // 10_000, 1
        while top:
            top, groups = top // 10_000, groups + 1
        # Words per image: sign, digit groups, separator; an even count,
        # so that each image fills whole 8-byte words.
        width = signed + groups + 1
        words = np.zeros((images.size, width + width % 2), np.uint32)
        if signed:
            words[negative, 0] = _MINUS
        last = signed + groups - 1
        rest = magnitude
        for column in range(last, signed - 1, -1):
            higher = rest // 10_000
            group = (rest - higher * 10_000).astype(np.intp)
            np.add(group, _LEADING, out=group, where=higher == 0)
            text = _DIGITS.take(group)
            if column != last:
                # Above an image's leading group there is no text at all.
                text *= rest != 0
            words[:, column] = text
            rest = higher
        after = words.reshape(k, n, -1)[:, :, last + 1]
        after[:] = _NEXT
        after[:, -1] = _NEXT_ROW
        after[-1, -1] = _END
        return b"[[" + words.tobytes().translate(None, b"\0")

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
