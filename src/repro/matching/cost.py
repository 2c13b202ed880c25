"""Static matching-order cost estimation.

Before running the (potentially exponential) enumeration, the expected
search-tree size of an order can be estimated from candidate cardinalities
and data-graph density — the classical left-deep join cardinality
estimate that CFL's path ordering and GraphQL's greedy ordering optimize
implicitly.  The estimate for prefix ``φ[0..i]`` multiplies ``|C(φ_0)|``
by, for each later vertex, its candidate count damped once per backward
neighbour by the edge selectivity ``avg_degree / |V(G)|``.

The paper's experiments measure real ``#enum``, never this estimate,
but every plan carries it: ``Matcher._plan_cold`` calls
:func:`estimate_order_cost` on each plan whose candidate sets are all
non-empty and stores the result as
:attr:`repro.api.plan.QueryPlan.estimated_cost`, and
``CostAwareScheduler`` orders admission by that number
(``service/scheduler.py``).
:func:`rank_orders` ranks candidate orders with it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import InvalidOrderError
from repro.graphs.graph import Graph
from repro.graphs.validation import check_order
from repro.matching.candidates import CandidateSets

__all__ = ["estimate_order_cost", "rank_orders"]


def estimate_order_cost(
    query: Graph,
    data: Graph,
    candidates: CandidateSets,
    order: Sequence[int],
) -> float:
    """Estimated number of partial embeddings explored along ``order``.

    Returns the sum over prefixes of the estimated prefix-embedding
    counts (mirroring ``#enum``, which counts recursive calls at every
    depth).  Independence assumptions make this a coarse estimate; its
    value is *relative* comparison between orders, not absolute accuracy.
    """
    order = [int(u) for u in order]
    check_order(query, order, connected=False)
    if candidates.num_query_vertices != query.num_vertices:
        raise InvalidOrderError("candidate sets do not cover the query")
    if not order:
        return 1.0

    nv = max(data.num_vertices, 1)
    # Probability that a specific data vertex is adjacent to another
    # specific data vertex (uniform edge model).
    edge_prob = min(1.0, data.average_degree / nv)

    position = {u: i for i, u in enumerate(order)}
    total = 0.0
    prefix_count = 1.0
    for i, u in enumerate(order):
        backward = sum(
            1 for v in query.neighbors(u) if position[int(v)] < i
        )
        expansion = candidates.size(u) * (edge_prob**backward) if backward else (
            candidates.size(u)
        )
        prefix_count *= max(expansion, 1e-12)
        total += prefix_count
    return total


def rank_orders(
    query: Graph,
    data: Graph,
    candidates: CandidateSets,
    orders: Sequence[Sequence[int]],
) -> list[tuple[float, list[int]]]:
    """Orders sorted by estimated cost, cheapest first."""
    scored = [
        (estimate_order_cost(query, data, candidates, order), [int(u) for u in order])
        for order in orders
    ]
    scored.sort(key=lambda item: item[0])
    return scored
