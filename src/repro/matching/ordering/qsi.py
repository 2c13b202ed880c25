"""QuickSI ordering (Shang et al. [15]) — infrequent-edge first.

QuickSI converts the query into a weighted graph where each edge's weight
is the frequency of its label pair among data edges, then orders vertices
along a minimum spanning tree grown from the cheapest edge (Prim-style):
rare edges are matched first because they prune the most.
"""

from __future__ import annotations

from repro.errors import FilterError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateSets
from repro.matching.ordering.base import Orderer

__all__ = ["QSIOrderer"]


class QSIOrderer(Orderer):
    """Infrequent-edge-first spanning-tree ordering of QuickSI."""

    name = "qsi"

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
        if n == 1:
            return [0]
        if data is None and stats is None:
            raise FilterError("QSI ordering needs the data graph or its stats")
        if stats is None:
            stats = GraphStats(data)

        def weight(u: int, v: int) -> int:
            return stats.edge_label_frequency(query.label(u), query.label(v))

        edges = list(query.edges())
        if not edges:
            # Edgeless query: order by rarity of vertex label.
            return sorted(
                range(n), key=lambda u: stats.label_frequency(query.label(u))
            )

        # Seed with the globally cheapest edge, orienting its endpoints by
        # rarer vertex label first.
        start_edge = min(edges, key=lambda e: (weight(*e), e))
        a, b = start_edge
        if stats.label_frequency(query.label(b)) < stats.label_frequency(
            query.label(a)
        ):
            a, b = b, a
        phi = [a, b]
        ordered = {a, b}

        while len(phi) < n:
            best: tuple[int, int, int] | None = None  # (weight, vertex, anchor)
            for u in range(n):
                if u in ordered:
                    continue
                for w in query.neighbor_set(u):
                    if w in ordered:
                        cand = (weight(u, w), u, w)
                        if best is None or cand < best:
                            best = cand
            if best is None:
                # Disconnected query: start a new component at the rarest label.
                rest = [u for u in range(n) if u not in ordered]
                nxt = min(
                    rest, key=lambda u: (stats.label_frequency(query.label(u)), u)
                )
            else:
                nxt = best[1]
            phi.append(nxt)
            ordered.add(nxt)
        return phi
