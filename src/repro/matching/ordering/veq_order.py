"""VEQ-style ordering (Kim et al. [20]).

VEQ orders by candidate-set size adjusted by neighbour equivalence classes
(NEC): degree-one vertices with the same label and the same neighbour are
interchangeable, so VEQ weights their candidate size by the class size
(the class consumes ``|class|`` candidates from the same pool) and defers
them, reducing redundancy in the search space (Sec. II-C).

We implement: greedy connected extension minimizing the effective
candidate size ``|C(u)| / nec(u)`` where ``nec(u)`` is the size of ``u``'s
NEC class (1 for non-leaf vertices), with leaf classes kept adjacent.
"""

from __future__ import annotations

from repro.errors import FilterError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateSets
from repro.matching.ordering.base import Orderer, connected_extension

__all__ = ["VEQOrderer", "nec_classes"]


def nec_classes(query: Graph) -> list[list[int]]:
    """Neighbour equivalence classes of degree-one query vertices.

    Two degree-one vertices are equivalent iff they share the same label
    and the same (single) neighbour.
    """
    groups: dict[tuple[int, int], list[int]] = {}
    for u in query.vertices():
        if query.degree(u) == 1:
            neighbour = int(query.neighbors(u)[0])
            groups.setdefault((query.label(u), neighbour), []).append(u)
    return list(groups.values())


class VEQOrderer(Orderer):
    """Candidate-size ordering with NEC-aware weighting."""

    name = "veq"

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
            raise FilterError("VEQ ordering needs candidate sets")

        class_of: dict[int, int] = {}
        class_size: dict[int, int] = {}
        for idx, members in enumerate(nec_classes(query)):
            for u in members:
                class_of[u] = idx
                class_size[u] = len(members)

        def effective_size(u: int) -> float:
            return candidates.size(u) / class_size.get(u, 1)

        start = min(range(n), key=lambda u: (effective_size(u), -query.degree(u), u))
        phi = [start]
        remaining = set(range(n)) - {start}
        while remaining:
            frontier = connected_extension(query, phi, remaining)
            # Keep NEC siblings adjacent: if the last added vertex belongs
            # to a class with remaining members in the frontier, take one.
            last = phi[-1]
            if last in class_of:
                siblings = [
                    u
                    for u in frontier
                    if class_of.get(u) == class_of[last]
                ]
                if siblings:
                    nxt = min(siblings)
                    phi.append(nxt)
                    remaining.discard(nxt)
                    continue
            nxt = min(
                frontier,
                key=lambda u: (effective_size(u), -query.degree(u), u),
            )
            phi.append(nxt)
            remaining.discard(nxt)
        return phi
