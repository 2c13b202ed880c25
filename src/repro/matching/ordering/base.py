"""Matching-order generation interface (Phase 2 of Algorithm 1).

An :class:`Orderer` maps a query graph (plus, depending on the strategy,
the data graph, its statistics and the candidate sets) to a matching order
``φ`` — a permutation of ``V(q)`` (Def. II.3).  All orderers in this
package produce *connected* orders when the query is connected, matching
the constraint shared by the heuristics the paper compares and by the
RL action space (Sec. III-D).
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateSets
from repro.matching.context import MatchingContext

__all__ = ["Orderer", "connected_extension"]


class Orderer(abc.ABC):
    """Interface for matching-order generation strategies."""

    #: Short identifier used in benchmark tables.
    name: str = "base"

    @abc.abstractmethod
    def order(
        self,
        query: Graph,
        data: Graph | None = None,
        candidates: CandidateSets | None = None,
        stats: GraphStats | None = None,
    ) -> list[int]:
        """Return a matching order ``φ`` for ``query``."""

    def order_context(self, context: MatchingContext) -> list[int]:
        """:meth:`order` over shared Phase (1) artifacts.

        The matching engine calls this with the run's
        :class:`MatchingContext` so strategies that enumerate (e.g. the
        optimal-order sweep) reuse the already-built candidate space
        instead of re-deriving it.  The default simply unpacks the
        context into the positional :meth:`order` signature.
        """
        return self.order(
            context.query, context.data, context.candidates, context.stats
        )


def connected_extension(
    query: Graph, ordered: Sequence[int], remaining: set[int]
) -> list[int]:
    """Vertices of ``remaining`` adjacent to ``ordered`` (the action space).

    Falls back to all of ``remaining`` when nothing is adjacent (only
    possible for disconnected queries), so greedy loops always progress.
    """
    ordered_set = set(ordered)
    frontier = [
        u
        for u in remaining
        if any(v in ordered_set for v in query.neighbor_set(u))
    ]
    return frontier if frontier else sorted(remaining)
