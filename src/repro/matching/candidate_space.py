"""Candidate-space auxiliary structure (CECI / DP-iso style), CSR-flat.

CECI [19] and DP-iso [12] do not enumerate over raw candidate sets: they
precompute, for every query edge ``(u, u')`` and every candidate
``v ∈ C(u)``, the adjacency list ``N(v) ∩ C(u')``.  The enumeration's
local-candidate computation then becomes a lookup plus (small) set
intersections instead of scans over full data-graph neighbourhoods.

:class:`CandidateSpace` is that index, laid out as one flat buffer per
edge direction instead of a dict of per-vertex arrays: direction
``(u, u')`` stores ``(offsets, concat_indices)`` where the adjacency list
of the ``p``-th candidate of ``u`` is
``concat_indices[offsets[p]:offsets[p+1]]``, plus a shared dense
``vertex -> position in C(u)`` map per query vertex.  A per-edge lookup
is therefore two array indexings — no dict probes, no millions of tiny
ndarray objects on real data graphs.

Building the index is fully vectorized over the data graph's CSR arrays:
the neighbourhoods of all candidates are gathered in one shot and
filtered against ``C(u')`` with a single ``searchsorted`` membership
test.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FilterError
from repro.graphs.graph import Graph
from repro.matching.candidates import CandidateSets

__all__ = ["CandidateSpace"]

_EMPTY_ARRAY = np.empty(0, dtype=np.int64)
_EMPTY_ARRAY.setflags(write=False)


class CandidateSpace:
    """Per-query-edge candidate adjacency index over flat buffers.

    Parameters
    ----------
    query / data:
        The matching instance.
    candidates:
        Complete candidate sets from any filter.
    """

    __slots__ = ("query", "data", "candidates", "_positions", "_flat")

    def __init__(self, query: Graph, data: Graph, candidates: CandidateSets):
        if candidates.num_query_vertices != query.num_vertices:
            raise FilterError("candidate sets do not cover the query")
        self.query = query
        self.data = data
        self.candidates = candidates
        #: query vertex u -> dense int64 map: data vertex -> position in
        #: C(u) (-1 when absent); shared across all directions leaving u.
        self._positions: dict[int, np.ndarray] = {}
        #: (u, u') -> (offsets, concat_indices) flat adjacency buffers.
        self._flat: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        indptr, indices = data.csr
        for u, u_prime in query.edges():
            self._flat[(u, u_prime)] = self._build_direction(
                u, u_prime, indptr, indices
            )
            self._flat[(u_prime, u)] = self._build_direction(
                u_prime, u, indptr, indices
            )
        # Dense position maps are part of the index: build them with it,
        # so the whole CandidateSpace cost lands in Phase (1) and the
        # first timed enumeration pays nothing extra.
        for u in query.vertices():
            if query.degree(u):
                self._position_map(u)

    def _build_direction(
        self, u: int, u_prime: int, indptr: np.ndarray, indices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat ``N(v) ∩ C(u')`` lists for all ``v ∈ C(u)``, vectorized."""
        source = self.candidates.array(u)
        target = self.candidates.array(u_prime)
        degs = indptr[source + 1] - indptr[source] if source.size else _EMPTY_ARRAY
        total = int(degs.sum()) if source.size else 0
        if total == 0 or target.size == 0:
            offsets = np.zeros(source.size + 1, dtype=np.int64)
            concat = _EMPTY_ARRAY
        else:
            # Gather the concatenated neighbourhoods of every candidate:
            # for segment p the positions indptr[v_p] .. indptr[v_p]+d(v_p).
            seg_starts = np.cumsum(degs) - degs
            flat_pos = (
                np.arange(total, dtype=np.int64)
                - np.repeat(seg_starts, degs)
                + np.repeat(indptr[source], degs)
            )
            nbrs = indices[flat_pos]
            # Membership of each neighbour in the sorted C(u') array.
            loc = np.searchsorted(target, nbrs)
            mask = target[np.minimum(loc, target.size - 1)] == nbrs
            seg_ids = np.repeat(np.arange(source.size, dtype=np.int64), degs)
            counts = np.bincount(seg_ids[mask], minlength=source.size)
            offsets = np.zeros(source.size + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            concat = nbrs[mask]
            concat.setflags(write=False)
        offsets.setflags(write=False)
        return offsets, concat

    def _position_map(self, u: int) -> np.ndarray:
        """Dense ``data vertex -> position in C(u)`` map (built on demand).

        int32 is enough (positions are bounded by ``|C(u)| < |V(G)|``)
        and halves the O(|V(G)|)-per-query-vertex footprint.
        """
        positions = self._positions.get(u)
        if positions is None:
            source = self.candidates.array(u)
            positions = np.full(self.data.num_vertices, -1, dtype=np.int32)
            positions[source] = np.arange(source.size, dtype=np.int32)
            positions.setflags(write=False)
            self._positions[u] = positions
        return positions

    def edge_flat(
        self, u: int, u_prime: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The flat ``(positions, offsets, concat_indices)`` triple.

        The iterative enumeration engine pre-binds these arrays per depth
        so its hot loop is two array indexings plus array intersections.
        """
        flat = self._flat.get((u, u_prime))
        if flat is None:
            raise FilterError(f"({u}, {u_prime}) is not a query edge")
        return (self._position_map(u),) + flat

    def edge_candidates_array(self, u: int, u_prime: int, v: int) -> np.ndarray:
        """``N(v) ∩ C(u')`` for ``v ∈ C(u)`` as a sorted int64 array."""
        flat = self._flat.get((u, u_prime))
        if flat is None:
            raise FilterError(f"({u}, {u_prime}) is not a query edge")
        positions = self._position_map(u)
        if not 0 <= v < positions.size:
            return _EMPTY_ARRAY
        p = positions[v]
        if p < 0:
            return _EMPTY_ARRAY
        offsets, concat = flat
        return concat[offsets[p] : offsets[p + 1]]

    def memory_bytes(self) -> int:
        """Index footprint: flat buffers plus position maps, each once."""
        total = sum(
            offsets.nbytes + concat.nbytes for offsets, concat in self._flat.values()
        )
        return total + sum(
            positions.nbytes for positions in self._positions.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        pairs = sum(offsets.size - 1 for offsets, _ in self._flat.values())
        return f"CandidateSpace(edges={len(self._flat) // 2}, entries={pairs})"
