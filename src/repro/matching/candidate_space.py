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

The whole index is built in one pass per query, not one per directed
query edge.  The candidate sets of the non-isolated query vertices are
laid out as one CSR (row ``r`` is ``C(u)`` of the ``r``-th such vertex),
so a single gather yields ``C(u)`` for every direction ``(u, u')`` and a
second yields the neighbour lists of all of them.  The position maps are
the rows of one ``(vertices, |V(G)|)`` int32 matrix filled by a single
scatter, every (direction, neighbour) pair is tested against its
target's row in one lookup, and one ``bincount`` and one ``cumsum``
yield every direction's offsets; the per-direction Python loop only
slices read-only views of the shared buffers.
``tests/candidate_space_oracle.py`` keeps the per-direction build this
replaced, and every ``edge_flat`` triple and
:meth:`CandidateSpace.memory_bytes` must equal it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FilterError
from repro.graphs.graph import Graph, gather_neighbors
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
        #: query vertex u -> read-only int32 row: data vertex -> position
        #: in C(u) (-1 when absent); shared across all directions leaving u.
        self._positions: dict[int, np.ndarray] = {}
        #: (u, u') -> (offsets, concat_indices) flat adjacency buffers.
        self._flat: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

        # Only vertices with a query edge get a row of the candidate CSR
        # and of the position matrix.
        active = np.flatnonzero(query.degrees).tolist()
        if not active:
            return
        rows = np.arange(len(active), dtype=np.int64)
        row_of = np.full(query.num_vertices, -1, dtype=np.int64)
        row_of[active] = rows
        sources = [candidates.array(u) for u in active]
        sizes = np.array([arr.size for arr in sources], dtype=np.int64)
        cand = np.concatenate(sources)
        cand_ptr = np.zeros(len(active) + 1, dtype=np.int64)
        np.cumsum(sizes, out=cand_ptr[1:])

        # One scatter: row r of `matrix` is the position map of active[r].
        # int32 is enough (positions are below |V(G)|) and halves the
        # O(|V(G)|)-per-query-vertex footprint.
        matrix = np.full((len(active), data.num_vertices), -1, dtype=np.int32)
        local = np.arange(cand.size, dtype=np.int64) - np.repeat(cand_ptr[:-1], sizes)
        matrix[np.repeat(rows, sizes), cand] = local
        matrix.setflags(write=False)

        # Directions in query-CSR order: (u, u') for every neighbour u' of
        # every active u.  A segment is one v ∈ C(u) of one direction d;
        # d's offsets take |C(u)| + 1 slots, the first a leading zero, so
        # segment s counts into slot s + d + 1.
        src = np.repeat(np.arange(query.num_vertices), query.degrees)
        dst = query.indices
        src_row = row_of[src]
        seg_sizes = sizes[src_row]
        seg = gather_neighbors(cand_ptr, cand, src_row)
        direction = np.repeat(np.arange(src.size, dtype=np.int64), seg_sizes)
        slot = np.arange(seg.size, dtype=np.int64) + direction + 1

        # One gather of every segment's neighbour list, one lookup of each
        # neighbour in the position-map row of its direction's target.
        indptr, indices = data.csr
        degs = indptr[seg + 1] - indptr[seg]
        nbrs = gather_neighbors(indptr, indices, seg)
        target = np.repeat(row_of[dst][direction], degs)
        hit = matrix[target, nbrs] >= 0

        block_len = seg_sizes + 1
        block_start = np.cumsum(block_len) - block_len
        counts = np.bincount(np.repeat(slot, degs)[hit], minlength=seg.size + src.size)
        cum = np.cumsum(counts)
        base = cum[block_start]
        offsets = cum - np.repeat(base, block_len)
        offsets.setflags(write=False)
        concat = nbrs[hit]
        concat.setflags(write=False)

        for r, u in enumerate(active):
            self._positions[u] = matrix[r]
        for u, u_prime, b, k, c0, c1 in zip(
            src.tolist(),
            dst.tolist(),
            block_start.tolist(),
            block_len.tolist(),
            base.tolist(),
            cum[block_start + seg_sizes].tolist(),
        ):
            self._flat[(u, u_prime)] = (offsets[b : b + k], concat[c0:c1])

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
        return (self._positions[u],) + flat

    def edge_candidates_array(self, u: int, u_prime: int, v: int) -> np.ndarray:
        """``N(v) ∩ C(u')`` for ``v ∈ C(u)`` as a sorted int64 array."""
        flat = self._flat.get((u, u_prime))
        if flat is None:
            raise FilterError(f"({u}, {u_prime}) is not a query edge")
        positions = self._positions[u]
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
        return total + sum(positions.nbytes for positions in self._positions.values())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        pairs = sum(offsets.size - 1 for offsets, _ in self._flat.values())
        return f"CandidateSpace(edges={len(self._flat) // 2}, entries={pairs})"
