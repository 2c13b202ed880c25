"""RI ordering (Bonnici et al. [16]) — the state-of-the-art heuristic.

RI uses only the structure of the query graph (Sec. II-C):

* start from the vertex with maximum degree;
* repeatedly add the unordered vertex with the most neighbours already in
  ``φ_t``;
* break ties by (1) ``|u_neig|`` — the number of ordered vertices that are
  adjacent to ``u`` *and* have a neighbour outside ``φ_t``; then (2)
  ``|u_unv|`` — the number of ``u``'s neighbours that are unordered and not
  adjacent to any ordered vertex; remaining ties are broken arbitrarily
  (the paper's RI "selects randomly"; here the lowest vertex id wins on
  every path, so a query's order depends on its numbering alone, never
  on the queries ordered before it).
"""

from __future__ import annotations

from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateSets
from repro.matching.ordering.base import Orderer

__all__ = ["RIOrderer"]


class RIOrderer(Orderer):
    """Structure-only greedy ordering of RI."""

    name = "ri"

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
        degrees = query.degrees

        def pick(choices: list[int], keys: list[tuple]) -> int:
            best = max(keys)
            return min(c for c, k in zip(choices, keys) if k == best)

        nbrs = [query.neighbor_set(u) for u in range(n)]
        first_choices = list(range(n))
        first_keys = [(int(degrees[u]),) for u in first_choices]
        phi = [pick(first_choices, first_keys)]
        ordered: set[int] = set(phi)
        # The unordered vertices with no ordered neighbour, updated per step.
        untouched = set(range(n)) - ordered - nbrs[phi[0]]

        while len(phi) < n:
            remaining = [u for u in range(n) if u not in ordered]
            # ``|u_neig|`` needs no key of its own: an ordered neighbour of
            # an unordered ``u`` has ``u`` outside ``φ_t``, so it is one of
            # the first key's vertices and the two counts are equal.
            keys = [
                (len(nbrs[u] & ordered), len(nbrs[u] & untouched))
                for u in remaining
            ]
            # Prefer connected extensions: candidates with ordered_nbrs == 0
            # are only taken when no connected vertex remains.
            connected = [
                (u, k) for u, k in zip(remaining, keys) if k[0] > 0
            ]
            if connected:
                remaining = [u for u, _ in connected]
                keys = [k for _, k in connected]
            nxt = pick(remaining, keys)
            phi.append(nxt)
            ordered.add(nxt)
            untouched.discard(nxt)
            untouched -= nbrs[nxt]
        return phi
