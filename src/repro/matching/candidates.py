"""Candidate vertex sets (Def. II.2) and the filter interface.

Phase (1) of the generic backtracking framework (Algorithm 1) produces a
*complete* candidate set ``C(u)`` for every query vertex: any data vertex
participating in some embedding must survive filtering.  Filters here only
ever *shrink* candidate sets, so completeness is preserved by construction
as long as the base rule (label match + degree) is complete — which it is
for subgraph isomorphism.

The canonical representation of each ``C(u)`` is a sorted, duplicate-free
int64 array — the form every CSR-flat consumer (:class:`CandidateSpace`,
the iterative enumerator, the vectorized filters) works on directly.  The
frozenset views (the DP-iso filter starts from them) are derived
lazily, one query vertex at a time, so array-only pipelines never build
them.
"""

from __future__ import annotations

import abc
import sys
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import FilterError
from repro.graphs.graph import Graph, sorted_unique
from repro.graphs.stats import GraphStats

__all__ = ["CandidateSets", "CandidateFilter"]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


class CandidateSets:
    """Per-query-vertex candidate sets ``C(u)``.

    Canonically stores each ``C(u)`` as a sorted int64 array; the
    frozenset view (the DP-iso filter's starting sets) is
    materialized lazily per vertex.
    """

    __slots__ = ("_arrays", "_sets")

    def __init__(self, sets: Sequence[Iterable[int]]):
        self._arrays: list[np.ndarray] = []
        for s in sets:
            if isinstance(s, np.ndarray):
                arr = sorted_unique(np.asarray(s, dtype=np.int64))
            else:
                arr = sorted_unique(np.fromiter((int(v) for v in s), dtype=np.int64))
            arr.setflags(write=False)
            self._arrays.append(arr)
        self._sets: list[frozenset[int] | None] = [None] * len(self._arrays)

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray]) -> "CandidateSets":
        """Trusted fast path: wrap sorted, duplicate-free int64 arrays.

        The vectorized filters produce candidates as masked slices of the
        data graph's label index, which are sorted and unique already —
        no per-element Python round trip is needed.  Int64 inputs are
        wrapped (not copied) and frozen read-only in place; pass copies
        if the caller needs to keep mutating them.
        """
        self = cls.__new__(cls)
        self._arrays = []
        for arr in arrays:
            arr = np.asarray(arr, dtype=np.int64)
            arr.setflags(write=False)
            self._arrays.append(arr)
        self._sets = [None] * len(self._arrays)
        return self

    @property
    def num_query_vertices(self) -> int:
        """Number of query vertices covered."""
        return len(self._arrays)

    def get(self, u: int) -> frozenset[int]:
        """Candidate set ``C(u)`` as a frozenset (materialized lazily)."""
        s = self._sets[u]
        if s is None:
            s = self._sets[u] = frozenset(self._arrays[u].tolist())
        return s

    def array(self, u: int) -> np.ndarray:
        """Candidate set ``C(u)`` as a sorted array."""
        return self._arrays[u]

    def size(self, u: int) -> int:
        """``|C(u)|``."""
        return int(self._arrays[u].size)

    def sizes(self) -> list[int]:
        """All candidate set sizes indexed by query vertex."""
        return [int(arr.size) for arr in self._arrays]

    def has_empty(self) -> bool:
        """Whether any ``C(u)`` is empty (query has no match)."""
        return any(arr.size == 0 for arr in self._arrays)

    def contains(self, u: int, v: int) -> bool:
        """Whether data vertex ``v`` is in ``C(u)``."""
        arr = self._arrays[u]
        i = int(np.searchsorted(arr, v))
        return i < arr.size and int(arr[i]) == v

    def memory_bytes(self) -> int:
        """Array footprint plus any lazily materialized frozenset views."""
        total = sum(arr.nbytes for arr in self._arrays)
        total += sum(sys.getsizeof(s) for s in self._sets if s is not None)
        return total

    def __iter__(self) -> Iterator[frozenset[int]]:
        return (self.get(u) for u in range(len(self._arrays)))

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"CandidateSets(sizes={self.sizes()})"


class CandidateFilter(abc.ABC):
    """Interface for Phase (1) candidate generation strategies."""

    #: Short identifier used in benchmark tables.
    name: str = "base"

    @abc.abstractmethod
    def filter(
        self, query: Graph, data: Graph, stats: GraphStats | None = None
    ) -> CandidateSets:
        """Compute complete candidate sets for ``query`` against ``data``."""

    def _require_stats(self, data: Graph, stats: GraphStats | None) -> GraphStats:
        if stats is None:
            return GraphStats(data)
        if stats.graph is not data:
            raise FilterError("GraphStats instance does not belong to this data graph")
        return stats
