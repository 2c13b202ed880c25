"""End-to-end matching benchmark: the perf-trajectory harness.

Runs the full plan + execute pipeline (``repro.api.Matcher``) over the
synthesized Table II datasets, records per-phase timings, throughput and
peak candidate-index footprint, and emits one machine-readable JSON
(``BENCH_matching.json``) — the unit of the repo's perf trajectory.
A PR that changes what the search explores regenerates the committed
baseline under ``benchmarks/baselines/`` and CI's ``perf-smoke`` job
re-runs the quick profile against it, failing on output drift (match
counts / ``#enum``).

The timings are recorded, never gated: a wall-clock budget against a
baseline recorded on another machine was not decidable (it failed on
the unchanged parent in two runs of three), so performance claims go
through ``benchmarks/e2e/compare.py`` over alternating runs instead.
What this script does gate is what repeats exactly — counts against the
baseline, every warm plan a cache hit (and cheaper than planning cold).
``--compare`` refuses a baseline recorded under another report schema.

Not collected by pytest (no ``test_`` prefix) — run it directly::

    PYTHONPATH=src python benchmarks/bench_matching.py [--quick]
        [--output BENCH_matching.json]
        [--compare benchmarks/baselines/bench_matching.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import Matcher
from repro.datasets import load_dataset, query_workload
from repro.graphs.canonical import canonical_form, relabel_graph
from repro.service import PlanCache

SCHEMA = 8

#: (dataset, query size, total workload queries) per profile.  Small
#: graphs keep the quick profile CI-sized; the full profile adds the
#: scaled-down large graphs.
QUICK_WORKLOADS = (("citeseer", 8, 8), ("yeast", 8, 8))
FULL_WORKLOADS = (
    ("citeseer", 8, 16),
    ("yeast", 8, 16),
    ("dblp", 8, 12),
    ("youtube", 8, 12),
)

MATCH_LIMIT = 100_000
TIME_LIMIT = 60.0


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------
def bench_end_to_end(workloads, repeats: int) -> list[dict]:
    """Plan + execute each workload through the facade; per-phase rows."""
    rows = []
    for dataset, size, count in workloads:
        data = load_dataset(dataset)
        matcher = Matcher(
            data,
            filter="gql",
            orderer="ri",
            match_limit=MATCH_LIMIT,
            time_limit=TIME_LIMIT,
        )
        queries = query_workload(dataset, size=size, count=count, data=data).eval
        plans = [matcher.plan(q) for q in queries]
        filter_time = sum(p.filter_time for p in plans)
        order_time = sum(p.order_time for p in plans)
        peak_bytes = max((p.candidate_space_bytes for p in plans), default=0)
        # Execution is the measured phase: repeat and keep the best, so
        # one scheduler hiccup doesn't poison the trajectory.
        best = None
        for _ in range(repeats):
            start = time.perf_counter()
            results = [matcher.execute(p) for p in plans]
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
        matches = sum(r.num_matches for r in results)
        enums = sum(r.num_enumerations for r in results)
        row = {
            "dataset": dataset,
            "query_size": size,
            "queries": len(queries),
            "matches": matches,
            "num_enumerations": enums,
            "filter_time_s": round(filter_time, 6),
            "order_time_s": round(order_time, 6),
            "enum_time_s": round(best, 6),
            "matches_per_s": round(matches / max(best, 1e-9), 1),
            "enum_steps_per_s": round(enums / max(best, 1e-9), 1),
            "peak_candidate_space_bytes": int(peak_bytes),
        }
        rows.append(row)
        print(
            f"  {dataset:<10} Q{size:<3} queries={row['queries']:>3}  "
            f"matches={matches:>9,}  #enum={enums:>10,}  "
            f"filter={filter_time * 1e3:7.1f}ms  order={order_time * 1e3:6.1f}ms  "
            f"enum={best * 1e3:7.1f}ms  {row['matches_per_s'] / 1e3:8.1f}k matches/s  "
            f"cs-peak={peak_bytes / 1024:,.0f}KiB"
        )
    return rows


def _relabeled_isomorph(query, seed: int):
    """An isomorphic copy of ``query`` under a random vertex permutation."""
    rng = np.random.default_rng(seed)
    return relabel_graph(query, rng.permutation(query.num_vertices))


def bench_plan_cache(workloads, repeats: int) -> dict:
    """Repeated-workload scenario: cold planning vs plan-cache hits.

    Models the serving regime the plan cache exists for: the same (or
    isomorphic) queries recur against long-lived data graphs.  The cold
    pass plans every query against an empty cache; the warm passes
    re-plan random *isomorphs* of the same queries through the full
    canonical path (canonical labeling + fingerprint lookup + exact
    query equality guard) — the realistic hit cost.  Cache hits must be
    measurably cheaper than cold planning; CI's ``perf-smoke`` job
    gates the quick profile on the win itself and on every warm plan
    being a hit.
    """
    warm_pass_iters = 5  # passes per warm measurement: lifts the timed
    # region out of scheduler-jitter territory
    instances = []
    for dataset, size, count in workloads:
        data = load_dataset(dataset)
        cache = PlanCache()
        matcher = Matcher(
            data, filter="gql", orderer="ri",
            match_limit=MATCH_LIMIT, time_limit=TIME_LIMIT,
            plan_cache=cache, cache_scope=dataset,
        )
        queries = list(
            query_workload(dataset, size=size, count=count, data=data).eval
        )
        # Client-side relabeling is not serving cost: pre-generate the
        # isomorph waves outside every timed region.
        waves = [
            [
                _relabeled_isomorph(q, wave * 10_007 + i)
                for i, q in enumerate(queries)
            ]
            for wave in range(1, repeats * warm_pass_iters + 1)
        ]
        instances.append((matcher, queries, waves))

    def plan_pass(wave_index: int) -> int:
        """One full pass over every workload; returns cache hits."""
        hits = 0
        for matcher, queries, waves in instances:
            targets = queries if wave_index == 0 else waves[wave_index - 1]
            for target in targets:
                cform = canonical_form(target)
                _, hit = matcher.plan_fingerprinted(cform.graph, cform.fingerprint)
                hits += hit
        return hits

    total_queries = sum(len(queries) for _, queries, _ in instances)
    start = time.perf_counter()
    cold_hits = plan_pass(0)
    cold_time = time.perf_counter() - start
    assert cold_hits == 0, "cold pass must start from an empty cache"
    warm_time = None
    warm_hits = 0
    for repeat in range(repeats):
        start = time.perf_counter()
        hits = 0
        for it in range(warm_pass_iters):
            hits += plan_pass(repeat * warm_pass_iters + it + 1)
        elapsed = (time.perf_counter() - start) / warm_pass_iters
        warm_hits = hits
        warm_time = elapsed if warm_time is None else min(warm_time, elapsed)
    speedup = cold_time / max(warm_time, 1e-9)
    all_hit = warm_hits == total_queries * warm_pass_iters
    print(
        f"  plan-cache          cold={cold_time * 1e3:7.1f}ms  "
        f"warm={warm_time * 1e3:7.1f}ms  speedup={speedup:5.2f}x  "
        f"({total_queries} plans, warm passes over isomorphs, "
        f"{'all hits' if all_hit else 'MISSES ON WARM PASS'})"
    )
    return {
        "cold_plan_s": round(cold_time, 6),
        "warm_plan_s": round(warm_time, 6),
        "speedup": round(speedup, 3),
        "queries": total_queries,
        "warm_all_hits": all_hit,
    }


# ---------------------------------------------------------------------------
# Baseline comparison (the CI drift gate)
# ---------------------------------------------------------------------------
def compare_against_baseline(report: dict, baseline: dict) -> bool:
    """Gate this run against a committed baseline report.

    Output drift (query, match or ``#enum`` counts on any workload) is a
    hard failure — the enumeration's semantics are pinned — and so is a
    baseline recorded under another report schema.  Timings are not
    compared (see the module docstring).
    """
    ok = True
    if baseline.get("schema") != report["schema"]:
        print(
            f"  compare: PROFILE MISMATCH on schema: "
            f"{baseline.get('schema')!r} -> {report['schema']!r} "
            "(re-record the baseline with this script's --output)"
        )
        ok = False
    base_rows = {
        (r["dataset"], r["query_size"]): r for r in baseline.get("workloads", [])
    }
    for row in report["workloads"]:
        key = (row["dataset"], row["query_size"])
        base = base_rows.get(key)
        if base is None:
            print(f"  compare: no baseline row for {key}; skipping drift check")
            continue
        for field in ("queries", "matches", "num_enumerations"):
            if row[field] != base[field]:
                print(
                    f"  compare: OUTPUT DRIFT on {key}: {field} "
                    f"{base[field]:,} -> {row[field]:,}"
                )
                ok = False
    if ok:
        print("  compare: counts equal the baseline's on every workload")
    return ok


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized workloads")
    parser.add_argument(
        "--output", default="BENCH_matching.json", help="where to write the report"
    )
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="baseline JSON to gate against (schema + output drift)",
    )
    args = parser.parse_args(argv)

    workloads = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS
    repeats = 3 if args.quick else 5

    print("end-to-end matching benchmark (plan + execute, facade)")
    rows = bench_end_to_end(workloads, repeats)
    print("repeated-workload scenario (cold planning vs plan-cache hits)")
    plan_cache = bench_plan_cache(workloads, repeats)

    report = {
        "schema": SCHEMA,
        "quick": bool(args.quick),
        "workloads": rows,
        "plan_cache": plan_cache,
        "totals": {
            "matches": sum(r["matches"] for r in rows),
            "num_enumerations": sum(r["num_enumerations"] for r in rows),
            "enum_time_s": round(sum(r["enum_time_s"] for r in rows), 6),
        },
    }
    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {out_path}")

    ok = True
    if not plan_cache["warm_all_hits"]:
        print("PLAN-CACHE FAILED: warm pass missed the cache")
        ok = False
    if plan_cache["speedup"] < 1.0:
        print(
            "PLAN-CACHE FAILED: cache-hit planning slower than cold planning "
            f"({plan_cache['speedup']:.2f}x)"
        )
        ok = False
    if args.compare is not None:
        baseline = json.loads(Path(args.compare).read_text())
        ok &= compare_against_baseline(report, baseline)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
