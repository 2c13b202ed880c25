"""Frozen, inspectable query plans — the Phase (1)+(2) product.

A :class:`QueryPlan` is what :meth:`repro.api.matcher.Matcher.plan`
returns: everything Algorithm 1 decides *before* enumeration, frozen
into one object.  It records the component names that produced it, the
matching order φ, per-vertex candidate counts, per-phase timings, the
static cost estimate of :mod:`repro.matching.cost`, and the footprint of
the flat per-edge candidate index — plus a live
:class:`~repro.matching.context.MatchingContext` handle carrying the
actual Phase (1) arrays so :meth:`Matcher.execute` can run Phase (3)
without recomputing anything.

A plan lives in the process that built it: it always carries its
context, executes only against the data graph it was built on, and does
not serialize.  What crosses a wire is the query, as labels plus an edge
list (:func:`graph_payload` / :func:`graph_from_payload`); a process
that needs the plan builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain

from repro.errors import InvalidGraphError
from repro.graphs.canonical import canonical_fingerprint
from repro.graphs.graph import Graph
from repro.matching.context import MatchingContext
from repro.matching.cost import estimate_order_cost

__all__ = ["QueryPlan", "graph_payload", "graph_from_payload"]

#: The range a label or edge endpoint must fit: the graph stores int64.
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def graph_payload(graph: Graph) -> dict:
    """The query-graph wire shape: labels plus an edge list.

    The one spelling shared by the service's request payloads and the
    process pool's catalog specs — change the format here, nowhere else.
    """
    return {
        "labels": [int(lab) for lab in graph.labels],
        "edges": [[int(a), int(b)] for a, b in graph.edges()],
    }


def graph_from_payload(payload: dict) -> Graph:
    """Rebuild a query graph from :func:`graph_payload` output.

    Labels and edge endpoints must be JSON integers in int64 range:
    a float, a bool or a string is an
    :class:`~repro.errors.InvalidGraphError`, never coerced into a
    different query (``0.9`` is not label 0).
    """
    labels = list(payload["labels"])
    edges = [(a, b) for a, b in payload["edges"]]
    for what, values in (("label", labels), ("edge endpoint", chain(*edges))):
        for value in values:
            if type(value) is not int:
                raise InvalidGraphError(
                    f"query {what}s must be integers, got {type(value).__name__}"
                )
            if not _INT64_MIN <= value <= _INT64_MAX:
                raise InvalidGraphError(f"query {what}s must fit in int64")
    return Graph(labels, edges)


@dataclass(frozen=True)
class QueryPlan:
    """Frozen product of the filtering and ordering phases for one query.

    Attributes
    ----------
    query:
        The query graph the plan was built for.
    order:
        The matching order φ (a permutation of ``V(q)``).
    candidate_counts:
        ``|C(u)|`` per query vertex, indexed by vertex id.
    filter_name / orderer_name / enumerator_name:
        Registry names of the components that built (and will execute)
        the plan, as plain strings.
    filter_time / order_time:
        Phase (1) / Phase (2) wall-clock seconds (the candidate-space
        build is billed to ``filter_time``, as in the engine).
    build_time:
        Total wall clock spent inside :meth:`Matcher.plan`, including
        the cost estimate — what a planner-level cache would save.
    estimated_cost:
        Static left-deep estimate of the search-tree size along
        ``order`` (:func:`repro.matching.cost.estimate_order_cost`);
        ``nan`` for plans with a manually substituted order.
    candidate_space_bytes:
        Footprint of the flat per-edge candidate index built for the
        enumerator (0 when the engine does not need the index).
    context:
        The live Phase (1) artifacts Phase (3) runs on.
    """

    query: Graph
    order: tuple[int, ...]
    candidate_counts: tuple[int, ...]
    filter_name: str
    orderer_name: str
    enumerator_name: str
    filter_time: float
    order_time: float
    build_time: float
    estimated_cost: float
    candidate_space_bytes: int
    context: MatchingContext = field(repr=False, compare=False)

    @cached_property
    def fingerprint(self) -> str:
        """Canonical isomorphism-class fingerprint of the plan's query.

        Computed lazily (an exact canonical labeling of the query, see
        :func:`repro.graphs.canonical.canonical_fingerprint`) and cached
        on the instance; the plan cache keys on it, and callers that
        already hold the fingerprint (e.g. the service, which
        canonicalizes at the request boundary) seed it instead of
        recomputing.
        """
        return canonical_fingerprint(self.query)

    @property
    def num_query_vertices(self) -> int:
        """``|V(q)|``."""
        return len(self.candidate_counts)

    @property
    def matchable(self) -> bool:
        """False when some candidate set is empty: no embedding exists."""
        return all(count > 0 for count in self.candidate_counts)

    def with_order(self, order, estimate: bool = False) -> "QueryPlan":
        """A plan copy with ``order`` substituted (Phase (1) shared).

        The returned plan keeps this plan's context, counts and filter
        timing but reports ``order_time`` 0.0 and ``orderer_name``
        ``"manual"``; the order itself is validated at execution time.
        ``estimate=True`` recomputes the static cost for the new order;
        the default leaves it ``nan`` so hot loops substituting many
        orders (e.g. RL reward rollouts) skip the estimator.
        """
        order = tuple(int(u) for u in order)
        cost = float("nan")
        if estimate:
            cost = estimate_order_cost(
                self.context.query,
                self.context.data,
                self.context.candidates,
                order,
            )
        return replace(
            self,
            order=order,
            orderer_name="manual",
            order_time=0.0,
            estimated_cost=cost,
        )

    def release_space(self) -> None:
        """Drop the context's candidate space (rebuilds on next access).

        Long-lived plan caches (e.g. the trainer's per-query plans) call
        this between bursts of enumerations so at most one instance's
        dense index is resident.
        """
        self.context.release_space()
