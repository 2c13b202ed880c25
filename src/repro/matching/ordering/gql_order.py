"""GraphQL ordering — greedy smallest-candidate-set first.

GraphQL picks as the next query vertex the one with the smallest candidate
set ``|C(u)|`` among the connected extension of the current order (a
left-deep join ordering over candidate cardinalities).
"""

from __future__ import annotations

from repro.errors import FilterError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateSets
from repro.matching.ordering.base import Orderer, connected_extension

__all__ = ["GQLOrderer"]


class GQLOrderer(Orderer):
    """Candidate-cardinality greedy ordering of GraphQL."""

    name = "gql"

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
        if candidates is None:
            raise FilterError("GraphQL ordering needs candidate sets")

        start = min(range(n), key=lambda u: (candidates.size(u), -query.degree(u), u))
        phi = [start]
        remaining = set(range(n)) - {start}
        while remaining:
            frontier = connected_extension(query, phi, remaining)
            nxt = min(
                frontier, key=lambda u: (candidates.size(u), -query.degree(u), u)
            )
            phi.append(nxt)
            remaining.discard(nxt)
        return phi
