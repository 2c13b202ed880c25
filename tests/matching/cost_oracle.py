"""The ``estimate_order_cost`` loop before it ran on plain lists — a test
oracle.

It walks ``query.neighbors(u)`` (numpy slices) against a position dict
and reads ``candidates.size(u)`` per vertex; the production estimate
does the same arithmetic in the same order over ``tolist()`` copies, so
the two must return the same double (``tests/matching/test_cost.py``
compares ``float.hex``).
"""

from __future__ import annotations

from repro.errors import InvalidOrderError
from repro.graphs.validation import check_order


def estimate_order_cost(query, data, candidates, order) -> float:
    order = [int(u) for u in order]
    check_order(query, order, connected=False)
    if candidates.num_query_vertices != query.num_vertices:
        raise InvalidOrderError("candidate sets do not cover the query")
    if not order:
        return 1.0

    nv = max(data.num_vertices, 1)
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
