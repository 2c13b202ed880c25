"""VF2++ ordering (Jüttner & Madarasi [17]) — infrequent-label first.

VF2++ orders query vertices in BFS fashion, preferring at each step the
vertex with (1) most already-ordered neighbours, (2) rarest label in the
data graph, (3) largest degree.  The starting vertex minimizes label
frequency (ties: max degree).
"""

from __future__ import annotations

from repro.errors import FilterError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateSets
from repro.matching.ordering.base import Orderer, connected_extension

__all__ = ["VF2PPOrderer"]


class VF2PPOrderer(Orderer):
    """Label-rarity-driven BFS ordering of VF2++."""

    name = "vf2pp"

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
        if data is None and stats is None:
            raise FilterError("VF2++ ordering needs the data graph or its stats")
        if stats is None:
            stats = GraphStats(data)

        def label_freq(u: int) -> int:
            return stats.label_frequency(query.label(u))

        start = min(range(n), key=lambda u: (label_freq(u), -query.degree(u), u))
        phi = [start]
        ordered = {start}
        remaining = set(range(n)) - ordered

        while remaining:
            frontier = connected_extension(query, phi, remaining)
            nxt = min(
                frontier,
                key=lambda u: (
                    -len(query.neighbor_set(u) & ordered),
                    label_freq(u),
                    -query.degree(u),
                    u,
                ),
            )
            phi.append(nxt)
            ordered.add(nxt)
            remaining.discard(nxt)
        return phi
