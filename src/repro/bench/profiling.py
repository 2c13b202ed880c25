"""Query-difficulty profiling.

Workload analysis used when interpreting benchmark results: per-query
candidate statistics, the estimated search-space size, and the measured
#enum spread across a set of ordering strategies.  The Fig. 4 discussion
("hard queries dominate the tail") is quantified with these profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.matcher import Matcher
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateFilter
from repro.matching.cost import estimate_order_cost
from repro.matching.enumeration import Enumerator
from repro.matching.filters.gql import GQLFilter
from repro.matching.ordering import GQLOrderer, RandomOrderer, RIOrderer

__all__ = ["QueryProfile", "profile_query", "profile_workload"]


@dataclass(frozen=True)
class QueryProfile:
    """Difficulty indicators for one (query, data) pair."""

    num_vertices: int
    num_edges: int
    candidate_sizes: tuple[int, ...]
    min_candidates: int
    max_candidates: int
    estimated_cost: float
    #: Measured #enum under a few standard orders (keyed by orderer name);
    #: empty when ``measure=False``.
    measured_enum: dict[str, int]
    #: Footprint of the flat per-edge CandidateSpace index shared by the
    #: measurement runs (0 when ``measure=False`` — the index is never
    #: built for estimate-only profiles).
    candidate_space_bytes: int = 0

    @property
    def order_sensitivity(self) -> float:
        """max/min measured #enum — how much ordering matters here."""
        if not self.measured_enum:
            return float("nan")
        values = list(self.measured_enum.values())
        return max(values) / max(min(values), 1)


def profile_query(
    query: Graph,
    data: Graph,
    stats: GraphStats | None = None,
    candidate_filter: CandidateFilter | None = None,
    measure: bool = True,
    match_limit: int | None = 10_000,
    time_limit: float | None = 2.0,
) -> QueryProfile:
    """Profile one query's difficulty against ``data``."""
    candidate_filter = candidate_filter if candidate_filter is not None else GQLFilter()

    measured: dict[str, int] = {}
    space_bytes = 0
    if measure and query.num_vertices:
        # Facade path: one plan carries the candidate counts, the RI
        # reference order, the cost estimate and the candidate-space
        # footprint; the other measurement orders re-plan over the same
        # Phase (1) artifacts, exactly like the engine pipeline.
        matcher = Matcher(
            data,
            filter=candidate_filter,
            orderer="ri",
            enumerator=Enumerator(match_limit=match_limit, time_limit=time_limit),
            stats=stats,
        )
        plan = matcher.plan(query)
        sizes = plan.candidate_counts
        estimated = plan.estimated_cost
        if plan.matchable:
            measured["ri"] = matcher.execute(plan).num_enumerations
            for orderer in (GQLOrderer(), RandomOrderer(seed=0)):
                replan = matcher.replan(plan, orderer)
                measured[orderer.name] = matcher.execute(replan).num_enumerations
            space_bytes = plan.candidate_space_bytes
    else:
        candidates = candidate_filter.filter(query, data, stats)
        sizes = tuple(candidates.sizes())
        reference_order = (
            RIOrderer().order(query, data, candidates, stats)
            if query.num_vertices
            else []
        )
        estimated = estimate_order_cost(query, data, candidates, reference_order)

    return QueryProfile(
        num_vertices=query.num_vertices,
        num_edges=query.num_edges,
        candidate_sizes=sizes,
        min_candidates=min(sizes) if sizes else 0,
        max_candidates=max(sizes) if sizes else 0,
        estimated_cost=estimated,
        measured_enum=measured,
        candidate_space_bytes=space_bytes,
    )


def profile_workload(
    queries: list[Graph],
    data: Graph,
    stats: GraphStats | None = None,
    **kwargs,
) -> list[QueryProfile]:
    """Profiles for a whole query set (same kwargs as :func:`profile_query`)."""
    return [profile_query(q, data, stats, **kwargs) for q in queries]
