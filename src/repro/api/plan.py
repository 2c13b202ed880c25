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

Plans serialize: :meth:`QueryPlan.to_dict` emits a JSON-compatible
payload (the query travels as labels + edge list; the context handle
does not travel), and :meth:`QueryPlan.from_dict` round-trips it into a
*detached* plan — same order, counts, names and measurements, but
``context=None``.  Executing a detached plan makes the matcher rebuild
Phase (1) from the recorded filter; everything downstream of the
(deterministic) filter is bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.errors import InvalidGraphError, ReproError
from repro.graphs.canonical import canonical_fingerprint
from repro.graphs.graph import Graph
from repro.matching.context import MatchingContext
from repro.matching.cost import estimate_order_cost

__all__ = ["QueryPlan", "graph_payload", "graph_from_payload"]

#: Schema tag for serialized plans, bumped on incompatible layout changes.
#: Version 2 payloads may carry optional partitioned-matching blocks that
#: nothing writes any more; :meth:`QueryPlan.from_dict` ignores them, so
#: version-1 and version-2 payloads load alike.
PLAN_SCHEMA_VERSION = 2

#: Older payload versions :meth:`QueryPlan.from_dict` still accepts.
_READABLE_PLAN_VERSIONS = (1, PLAN_SCHEMA_VERSION)


def graph_payload(graph: Graph) -> dict:
    """The query-graph wire shape: labels plus an edge list.

    The one spelling shared by serialized plans and the service's
    request payloads — change the format here, nowhere else.
    """
    return {
        "labels": [int(lab) for lab in graph.labels],
        "edges": [[int(a), int(b)] for a, b in graph.edges()],
    }


def graph_from_payload(payload: dict) -> Graph:
    """Rebuild a query graph from :func:`graph_payload` output."""
    return Graph(
        payload["labels"],
        [(int(a), int(b)) for a, b in payload["edges"]],
    )


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
        the plan — plain strings, so plans serialize without pickling.
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
        Live Phase (1) artifacts; ``None`` on deserialized plans.
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
    context: MatchingContext | None = field(
        default=None, repr=False, compare=False
    )

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

    @property
    def attached(self) -> bool:
        """Whether the plan still carries live Phase (1) artifacts."""
        return self.context is not None

    def with_order(self, order, estimate: bool = False) -> "QueryPlan":
        """A plan copy with ``order`` substituted (Phase (1) shared).

        The returned plan keeps this plan's context, counts and filter
        timing but reports ``order_time`` 0.0 and ``orderer_name``
        ``"manual"``; the order itself is validated at execution time.
        ``estimate=True`` recomputes the static cost for the new order
        (needs an attached context); the default leaves it ``nan`` so
        hot loops substituting many orders (e.g. RL reward rollouts)
        skip the estimator.
        """
        order = tuple(int(u) for u in order)
        cost = float("nan")
        if estimate:
            if self.context is None:
                raise ReproError(
                    "with_order(estimate=True) needs an attached context"
                )
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
        dense index is resident; detached plans are a no-op.
        """
        if self.context is not None:
            self.context.release_space()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible payload (the live context does not travel).

        Every numeric is coerced to a native Python type here: plans are
        frequently built from numpy-derived values (candidate counts,
        timings, cost estimates), and ``json.dumps`` rejects numpy
        scalars — the round-trip test pins this stays safe.

        ``fingerprint`` is included when the query is canonicalizable
        (the normal case; cached plans carry it pre-seeded) and omitted
        otherwise — serialization must keep working for exactly the
        oversized/adversarially-symmetric plans the cache fallback
        serves.
        """
        try:
            fingerprint = self.fingerprint
        except InvalidGraphError:
            # Covers the size guard and CanonicalizationError alike.
            fingerprint = None
        payload = {
            "version": PLAN_SCHEMA_VERSION,
            "query": graph_payload(self.query),
            "order": [int(u) for u in self.order],
            "candidate_counts": [int(c) for c in self.candidate_counts],
            "filter": self.filter_name,
            "orderer": self.orderer_name,
            "enumerator": self.enumerator_name,
            "filter_time": float(self.filter_time),
            "order_time": float(self.order_time),
            "build_time": float(self.build_time),
            "estimated_cost": float(self.estimated_cost),
            "candidate_space_bytes": int(self.candidate_space_bytes),
        }
        if fingerprint is not None:
            payload["fingerprint"] = fingerprint
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryPlan":
        """Rebuild a (detached) plan from :meth:`to_dict` output.

        A recorded ``fingerprint`` is seeded onto the restored plan, so
        deserialization never re-pays (or re-fails) the canonical
        labeling; absent, the property stays lazy.
        """
        try:
            version = payload["version"]
            if version not in _READABLE_PLAN_VERSIONS:
                raise ReproError(
                    f"unsupported plan schema version {version!r} "
                    f"(this library writes {PLAN_SCHEMA_VERSION})"
                )
            plan = cls(
                query=graph_from_payload(payload["query"]),
                order=tuple(int(u) for u in payload["order"]),
                candidate_counts=tuple(
                    int(c) for c in payload["candidate_counts"]
                ),
                filter_name=payload["filter"],
                orderer_name=payload["orderer"],
                enumerator_name=payload["enumerator"],
                filter_time=float(payload["filter_time"]),
                order_time=float(payload["order_time"]),
                build_time=float(payload["build_time"]),
                estimated_cost=float(payload["estimated_cost"]),
                candidate_space_bytes=int(payload["candidate_space_bytes"]),
                context=None,
            )
            if "fingerprint" in payload:
                plan.__dict__["fingerprint"] = str(payload["fingerprint"])
            return plan
        except (KeyError, TypeError) as exc:
            raise ReproError(f"malformed query-plan payload: {exc}") from exc

    def to_json(self) -> str:
        """:meth:`to_dict` as a canonical (sorted-key) JSON string.

        One spelling of the wire format for anything that files plans on
        disk; :meth:`from_json` reads it back as a detached plan that
        :meth:`~repro.api.matcher.Matcher.execute` re-attaches.
        """
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "QueryPlan":
        """Rebuild a (detached) plan from :meth:`to_json` output.

        Raises :class:`~repro.errors.ReproError` on undecodable text or
        a malformed/unsupported payload — callers holding possibly-stale
        payloads catch it and fall back to cold planning.
        """
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ReproError(f"malformed query-plan JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ReproError(
                f"query-plan JSON must be an object, got {type(payload).__name__}"
            )
        return cls.from_dict(payload)
