"""The three paper phases as the program itself reports them.

``QueryPlan`` and ``MatchResult`` carry the Phase (1)/(2)/(3) clocks and
counts; this module turns one op's pair into a small record (so no plan,
and no candidate space, outlives its op) and a list of records into the
``filter.*`` / ``order.*`` / ``enum.*`` / ``api.overhead_ms`` metrics.
"""

from __future__ import annotations

import math
from statistics import fmean
from typing import NamedTuple


class PhaseRecord(NamedTuple):
    filter_s: float
    order_s: float
    enum_s: float
    estimated_cost: float
    candidates_mean: float
    space_bytes: int
    steps: int
    matches: int
    limit_reached: bool
    timed_out: bool


def phase_record(plan, enumeration, planned: bool = True) -> PhaseRecord:
    """One op's phase numbers.  ``planned=False`` marks a plan-cache hit:
    the plan's clocks are then history, not work this op did."""
    counts = plan.candidate_counts
    return PhaseRecord(
        filter_s=plan.filter_time if planned else 0.0,
        order_s=plan.order_time if planned else 0.0,
        enum_s=enumeration.elapsed,
        estimated_cost=plan.estimated_cost,
        candidates_mean=sum(counts) / len(counts) if counts else 0.0,
        space_bytes=plan.candidate_space_bytes,
        steps=enumeration.num_enumerations,
        matches=enumeration.num_matches,
        limit_reached=enumeration.limit_reached,
        timed_out=enumeration.timed_out,
    )


def phase_metrics(records: list[PhaseRecord], op_ms: float | None = None) -> dict:
    """Per-op means over ``records``; ``op_ms`` is the mean op latency the
    phases are subtracted from to give ``api.overhead_ms``."""
    costs = [r.estimated_cost for r in records if math.isfinite(r.estimated_cost)]
    enum_s = sum(r.enum_s for r in records)
    steps = sum(r.steps for r in records)
    out = {
        "filter.time_ms": 1e3 * fmean(r.filter_s for r in records),
        "filter.candidates_mean": fmean(r.candidates_mean for r in records),
        "filter.space_bytes": fmean(r.space_bytes for r in records),
        "order.time_ms": 1e3 * fmean(r.order_s for r in records),
        "order.estimated_cost_mean": fmean(costs) if costs else 0.0,
        "enum.time_ms": 1e3 * enum_s / len(records),
        "enum.steps": steps / len(records),
        "enum.steps_per_s": steps / enum_s if enum_s else 0.0,
        "enum.matches": fmean(r.matches for r in records),
        "enum.limit_reached_share": fmean(r.limit_reached for r in records),
        "enum.timeouts": float(sum(r.timed_out for r in records)),
    }
    if op_ms is not None:
        out["api.overhead_ms"] = op_ms - (
            out["filter.time_ms"] + out["order.time_ms"] + out["enum.time_ms"]
        )
    return out
