"""Static matching-order cost estimation.

Before running the (potentially exponential) enumeration, the expected
search-tree size of an order can be estimated from candidate cardinalities
and data-graph density — the classical left-deep join cardinality
estimate that CFL's path ordering and GraphQL's greedy ordering optimize
implicitly.  The estimate for prefix ``φ[0..i]`` multiplies ``|C(φ_0)|``
by, for each later vertex, its candidate count damped once per backward
neighbour by the edge selectivity ``avg_degree / |V(G)|``.

The paper's experiments measure real ``#enum``, never this estimate,
but every plan carries it: ``Matcher.plan`` calls
:func:`estimate_order_cost` on each plan whose candidate sets are all
non-empty and stores the result as
:attr:`repro.api.plan.QueryPlan.estimated_cost`, and
``CostAwareScheduler`` orders admission by that number
(``service/scheduler.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import InvalidOrderError
from repro.graphs.graph import Graph
from repro.graphs.validation import check_order
from repro.matching.candidates import CandidateSets

__all__ = ["estimate_order_cost"]


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

    # Plain lists: a plan's cost is a few dozen scalar steps, which cost
    # less in Python than one numpy call each.
    indptr = query.indptr.tolist()
    indices = query.indices.tolist()
    sizes = candidates.sizes()
    position = [0] * len(order)
    for i, u in enumerate(order):
        position[u] = i
    total = 0.0
    prefix_count = 1.0
    for i, u in enumerate(order):
        backward = sum(
            1 for v in indices[indptr[u] : indptr[u + 1]] if position[v] < i
        )
        prefix_count *= max(sizes[u] * edge_prob**backward, 1e-12)
        total += prefix_count
    return total
