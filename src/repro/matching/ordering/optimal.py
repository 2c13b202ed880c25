"""Optimal matching order by exhaustive permutation search (Fig. 6).

The paper's spectrum analysis (Sec. IV-C) obtains the optimal order by
generating *all* permutations of the query vertices, running the same
filtering/enumeration pipeline for each, and keeping the permutation with
the minimum enumeration number.  Restricting the search to connected
orders is safe: for a connected query, any order can be rearranged into a
connected one whose enumeration tree is no larger (a disconnected prefix
only inserts Cartesian products).

Every permutation after the first runs under an ``#enum`` budget of the
best count so far: one that would need more steps stops there and
cannot win, so a permutation wins only on a run that finished, and the
sweep's result is a function of its inputs, never of the host's speed.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.errors import FilterError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateSets
from repro.matching.context import MatchingContext
from repro.matching.enumeration import Enumerator
from repro.matching.ordering.base import Orderer

__all__ = ["OptimalOrderer", "connected_permutations"]


def connected_permutations(query: Graph) -> Iterator[list[int]]:
    """Yield every connected permutation of ``V(q)`` (DFS over prefixes)."""
    n = query.num_vertices
    if n == 0:
        yield []
        return

    prefix: list[int] = []
    in_prefix: set[int] = set()

    def extend() -> Iterator[list[int]]:
        if len(prefix) == n:
            yield list(prefix)
            return
        if prefix:
            frontier = sorted(
                u
                for u in range(n)
                if u not in in_prefix
                and (query.neighbor_set(u) & in_prefix)
            )
            if not frontier:  # disconnected query: allow any remaining vertex
                frontier = sorted(u for u in range(n) if u not in in_prefix)
        else:
            frontier = list(range(n))
        for u in frontier:
            prefix.append(u)
            in_prefix.add(u)
            yield from extend()
            prefix.pop()
            in_prefix.discard(u)

    yield from extend()


class OptimalOrderer(Orderer):
    """Brute-force optimal orderer minimizing ``#enum``.

    Parameters
    ----------
    match_limit:
        Match cap of each candidate permutation's enumeration run
        (mirrors the evaluation pipeline the order will be used in).
    enum_limit:
        ``#enum`` budget of the first run (``None`` = unlimited); each
        later run gets the best count so far, or this budget while no
        run has finished.  A run that stops on the budget never wins.
    max_permutations:
        Safety cap; permutations beyond it are skipped (the best order
        found so far is returned).  ``None`` = no cap.
    seed_orderers:
        Orderers whose outputs are evaluated *before* the permutation
        stream.  With a permutation cap this guarantees the result is at
        least as good as every seeded heuristic — the capped search can
        then only improve on them.
    """

    name = "optimal"

    def __init__(
        self,
        match_limit: int | None = 100_000,
        enum_limit: int | None = None,
        max_permutations: int | None = None,
        seed_orderers: list[Orderer] | None = None,
    ):
        self.match_limit = match_limit
        self.enum_limit = enum_limit
        self.max_permutations = max_permutations
        self.seed_orderers = seed_orderers if seed_orderers is not None else []
        #: ``#enum`` of the best order found by the last :meth:`order`
        #: call: the count of a finished run, or ``None`` when every run
        #: ran out of budget.
        self.last_best_enum: int | None = None

    def order(
        self,
        query: Graph,
        data: Graph | None = None,
        candidates: CandidateSets | None = None,
        stats: GraphStats | None = None,
    ) -> list[int]:
        if data is None or candidates is None:
            raise FilterError("optimal ordering needs the data graph and candidates")
        return self.order_context(MatchingContext(query, data, candidates, stats))

    def order_context(self, context: MatchingContext) -> list[int]:
        """Sweep permutations reusing the context's shared candidate space.

        Every candidate permutation is enumerated against the same
        :class:`MatchingContext`, so the per-edge index is built once for
        the whole sweep rather than once per permutation.
        """
        query = context.query
        first: list[int] | None = None
        best_order: list[int] | None = None
        best_enum: int | None = None

        def consider(phi: list[int]) -> None:
            nonlocal first, best_order, best_enum
            if first is None:
                first = phi
            # A tie with the best so far finishes within its budget and
            # loses to the earlier order.
            budget = self.enum_limit if best_enum is None else best_enum
            result = Enumerator(
                match_limit=self.match_limit, time_limit=None, enum_limit=budget
            ).run_context(context, phi)
            if result.timed_out:
                return
            if best_enum is None or result.num_enumerations < best_enum:
                best_enum = result.num_enumerations
                best_order = phi

        for orderer in self.seed_orderers:
            consider(orderer.order_context(context))
        for count, phi in enumerate(connected_permutations(query)):
            if self.max_permutations is not None and count >= self.max_permutations:
                break
            consider(phi)
        if best_order is None:
            # Every run ran out of budget, or none was allowed: no order
            # is known best, so the first one considered is kept.
            best_order = first or list(range(query.num_vertices))
        self.last_best_enum = best_enum
        return best_order
