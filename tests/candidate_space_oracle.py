"""The per-direction candidate-space build every one-pass build is held to.

This is ``repro.matching.candidate_space.CandidateSpace`` as it stood
before its constructor became one pass per query, moved here unchanged:
one ``_build_direction`` call per *directed* query edge, each gathering
the neighbour lists of ``C(u)`` and testing them against ``C(u')`` with
its own ``searchsorted``, and one dense position map per non-isolated
query vertex.  It shares nothing with the production build beyond the
``CandidateSets`` it reads, which is what makes it an oracle: every
``edge_flat`` triple of the production index must equal this one in
values and dtype, and ``memory_bytes()`` must be the same number
(``tests/matching/test_candidate_space.py``).

Test-only by design.  ``tests/conftest.py`` puts this directory on
``sys.path``, so any test module can
``from candidate_space_oracle import CandidateSpaceOracle``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import FilterError
from repro.graphs.graph import Graph
from repro.matching.candidates import CandidateSets

_EMPTY_ARRAY = np.empty(0, dtype=np.int64)
_EMPTY_ARRAY.setflags(write=False)


class CandidateSpaceOracle:
    """Drop-in for ``CandidateSpace`` on the ``edge_flat`` surface."""

    def __init__(self, query: Graph, data: Graph, candidates: CandidateSets):
        if candidates.num_query_vertices != query.num_vertices:
            raise FilterError("candidate sets do not cover the query")
        self.query = query
        self.data = data
        self.candidates = candidates
        self._positions: dict[int, np.ndarray] = {}
        self._flat: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        indptr, indices = data.csr
        for u, u_prime in query.edges():
            self._flat[(u, u_prime)] = self._build_direction(
                u, u_prime, indptr, indices
            )
            self._flat[(u_prime, u)] = self._build_direction(
                u_prime, u, indptr, indices
            )
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
        """Dense ``data vertex -> position in C(u)`` map (built on demand)."""
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
        """The flat ``(positions, offsets, concat_indices)`` triple."""
        flat = self._flat.get((u, u_prime))
        if flat is None:
            raise FilterError(f"({u}, {u_prime}) is not a query edge")
        return (self._position_map(u),) + flat

    def memory_bytes(self) -> int:
        """Index footprint: flat buffers plus position maps, each once."""
        total = sum(
            offsets.nbytes + concat.nbytes for offsets, concat in self._flat.values()
        )
        return total + sum(
            positions.nbytes for positions in self._positions.values()
        )
