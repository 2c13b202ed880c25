"""Uniformly random connected matching order — the weakest baseline.

Useful as a control in ablations: every other strategy should beat it.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateSets
from repro.matching.ordering.base import Orderer, connected_extension

__all__ = ["RandomOrderer"]


class RandomOrderer(Orderer):
    """Random connected order (seedable for reproducibility)."""

    name = "random"

    def __init__(self, seed: int | None = None):
        self._rng = np.random.default_rng(seed)

    def order(
        self,
        query: Graph,
        data: Graph | None = None,
        candidates: CandidateSets | None = None,
        stats: GraphStats | None = None,
    ) -> list[int]:
        n = query.num_vertices
        if n == 0:
            return []
        start = int(self._rng.integers(0, n))
        phi = [start]
        remaining = set(range(n)) - {start}
        while remaining:
            frontier = connected_extension(query, phi, remaining)
            nxt = frontier[int(self._rng.integers(0, len(frontier)))]
            phi.append(nxt)
            remaining.discard(nxt)
        return phi
