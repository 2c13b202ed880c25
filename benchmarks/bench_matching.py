"""End-to-end matching benchmark: the perf-trajectory harness.

Runs the full plan + execute pipeline (``repro.api.Matcher``) over the
synthesized Table II datasets, records per-phase timings, throughput and
peak candidate-index footprint, and emits one machine-readable JSON
(``BENCH_matching.json``) — the unit of the repo's perf trajectory.
Every speed PR regenerates the committed baseline under
``benchmarks/baselines/`` and CI's ``perf-smoke`` job re-runs the quick
profile against it, failing on output drift (match counts / ``#enum``)
or on a wall-clock regression beyond the tolerance.

The **backend** scenario races the frontier-batched vectorized engine
against the iterative default over the same plans, gated on
bit-identical match sequences and ``#enum`` (unsharded and per-shard)
plus a wall-clock win, with the speedup and peak batch-scratch bytes
recorded.  ``REPRO_BENCH_ENUM_STRATEGY`` selects the backend the
workload/sharded scenarios run with (bit-identity makes the baseline's
counts backend-independent).  ``--compare`` refuses a baseline recorded
under another report schema.

Not collected by pytest (no ``test_`` prefix) — run it directly::

    PYTHONPATH=src python benchmarks/bench_matching.py [--quick]
        [--output BENCH_matching.json]
        [--compare benchmarks/baselines/bench_matching.json]
        [--tolerance 0.25]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import Matcher
from repro.bench.calibrate import calibrate
from repro.datasets import load_dataset, query_workload
from repro.graphs.canonical import canonical_form, relabel_graph
from repro.matching import Enumerator
from repro.service import PlanCache

SCHEMA = 5

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

#: Shard counts for the partitioned-matching scenario; 1 measures the
#: pure partitioning overhead, 4 the memory win.
SHARD_COUNTS = (1, 2, 4)

#: Allowed relative sharded-vs-unsharded enumeration slowdown.  Thread
#: speedup is out of scope (the GIL serializes the per-shard work);
#: the gate pins that fan-out + merge bookkeeping stays cheap.
SHARDED_OVERHEAD_TOLERANCE = 0.15


# The perf gate normalizes enumeration wall-clock by the shared
# reference load, so a baseline recorded on one machine transfers to
# runners of a different speed; same scale as the serving baselines.
_calibrate = calibrate


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------
def bench_end_to_end(workloads, repeats: int, enum_strategy: str) -> list[dict]:
    """Plan + execute each workload through the facade; per-phase rows."""
    rows = []
    for dataset, size, count in workloads:
        data = load_dataset(dataset)
        matcher = Matcher(
            data,
            filter="gql",
            orderer="ri",
            enumerator=enum_strategy,
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


def bench_backend(workloads, repeats: int) -> dict:
    """Frontier-batched backend vs the iterative default.

    Two gates.  **Identity**: on every workload query the vectorized
    backend must reproduce the iterative engine's match *sequences* and
    ``#enum`` exactly — unsharded and per-shard (``shards=2``, where the
    merged sequences must also equal the unsharded ones and the
    summed per-shard ``#enum`` must agree engine-to-engine).
    **Wall-clock**: it must beat the iterative engine on aggregate
    enumeration time (the PR's target is >= 3x ``enum_steps_per_s`` on
    the full profile; the honest ratio is recorded either way).  The
    peak batch-scratch footprint is reported so the memory cost of the
    batch width stays visible in the trajectory.
    """
    timers = {
        name: Enumerator(
            strategy=name, match_limit=MATCH_LIMIT, time_limit=TIME_LIMIT
        )
        for name in ("iterative", "vectorized")
    }
    recorders = {
        name: Enumerator(
            strategy=name, match_limit=MATCH_LIMIT, time_limit=TIME_LIMIT,
            record_matches=True,
        )
        for name in ("iterative", "vectorized")
    }
    rows = []
    agree = True
    totals = {"iterative": 0.0, "vectorized": 0.0}
    total_enum = 0
    for dataset, size, count in workloads:
        data = load_dataset(dataset)
        matcher = Matcher(
            data, filter="gql", orderer="ri",
            match_limit=MATCH_LIMIT, time_limit=TIME_LIMIT,
        )
        sharded = Matcher(
            data, filter="gql", orderer="ri", shards=2,
            match_limit=MATCH_LIMIT, time_limit=TIME_LIMIT,
        )
        queries = query_workload(dataset, size=size, count=count, data=data).eval
        plans = [matcher.plan(q) for q in queries]
        shard_plans = [sharded.plan(q) for q in queries]

        # Identity pass: recorded, untimed, compare-and-discard per
        # query so at most one query's sequences stay resident.
        ds_agree = True
        for plan, shard_plan in zip(plans, shard_plans):
            it = matcher.execute(plan, enumerator=recorders["iterative"])
            vec = matcher.execute(plan, enumerator=recorders["vectorized"])
            ok = (
                it.enumeration.matches == vec.enumeration.matches
                and it.num_enumerations == vec.num_enumerations
            )
            sit = sharded.execute(shard_plan, enumerator=recorders["iterative"])
            svec = sharded.execute(shard_plan, enumerator=recorders["vectorized"])
            ok &= (
                svec.enumeration.matches == sit.enumeration.matches
                and svec.enumeration.matches == it.enumeration.matches
                and svec.num_enumerations == sit.num_enumerations
            )
            ds_agree &= ok
        agree &= ds_agree

        # Timed pass: counting runs over the same plans, best-of-repeats.
        times = {}
        enums = {}
        for name, engine in timers.items():
            best = None
            for _ in range(repeats):
                start = time.perf_counter()
                results = [matcher.execute(p, enumerator=engine) for p in plans]
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            times[name] = best
            enums[name] = sum(r.num_enumerations for r in results)
            totals[name] += best
        total_enum += enums["iterative"]
        speedup = times["iterative"] / max(times["vectorized"], 1e-9)
        row = {
            "dataset": dataset,
            "query_size": size,
            "agree": ds_agree,
            "num_enumerations": enums["iterative"],
            "iterative_enum_time_s": round(times["iterative"], 6),
            "vectorized_enum_time_s": round(times["vectorized"], 6),
            "speedup": round(speedup, 3),
            "vectorized_steps_per_s": round(
                enums["vectorized"] / max(times["vectorized"], 1e-9), 1
            ),
        }
        rows.append(row)
        print(
            f"  {dataset:<10} Q{size:<3} iterative={times['iterative'] * 1e3:7.1f}ms  "
            f"vectorized={times['vectorized'] * 1e3:7.1f}ms  "
            f"speedup={speedup:5.2f}x  "
            f"{row['vectorized_steps_per_s'] / 1e6:5.2f}M steps/s  "
            f"{'bit-identical' if ds_agree else 'OUTPUT DISAGREEMENT'}"
        )
    speedup = totals["iterative"] / max(totals["vectorized"], 1e-9)
    peak_scratch = timers["vectorized"].peak_scratch_bytes
    print(
        f"  backend totals      iterative={totals['iterative'] * 1e3:7.1f}ms  "
        f"vectorized={totals['vectorized'] * 1e3:7.1f}ms  speedup={speedup:5.2f}x  "
        f"batch-scratch-peak={peak_scratch / 1024:,.1f}KiB"
    )
    return {
        "workloads": rows,
        "agree": agree,
        "iterative_enum_time_s": round(totals["iterative"], 6),
        "vectorized_enum_time_s": round(totals["vectorized"], 6),
        "speedup": round(speedup, 3),
        "enum_steps_per_s": round(total_enum / max(totals["vectorized"], 1e-9), 1),
        "peak_batch_scratch_bytes": int(peak_scratch),
    }


def bench_sharded(workloads, repeats: int, enum_strategy: str) -> list[dict]:
    """Partitioned matching vs the single-shard oracle.

    For each workload and shard count: per-query match-count agreement
    with the unsharded run (the sequence-level bit-identity is pinned by
    the tier-1 suite; counts are the honest check at benchmark scale),
    the peak *per-shard* candidate-space footprint — the figure a
    placement scheduler sizes a worker by — and the enumeration
    wall-clock ratio against unsharded, merge bookkeeping included.
    """
    rows = []
    for dataset, size, count in workloads:
        data = load_dataset(dataset)
        queries = query_workload(dataset, size=size, count=count, data=data).eval
        base = Matcher(
            data, filter="gql", orderer="ri", enumerator=enum_strategy,
            match_limit=MATCH_LIMIT, time_limit=TIME_LIMIT,
        )
        base_plans = [base.plan(q) for q in queries]
        base_peak = max((p.candidate_space_bytes for p in base_plans), default=0)
        base_best = None
        for _ in range(repeats):
            start = time.perf_counter()
            base_results = [base.execute(p) for p in base_plans]
            elapsed = time.perf_counter() - start
            base_best = elapsed if base_best is None else min(base_best, elapsed)
        base_counts = [r.num_matches for r in base_results]
        for shards in SHARD_COUNTS:
            matcher = Matcher(
                data, filter="gql", orderer="ri", enumerator=enum_strategy,
                shards=shards,
                match_limit=MATCH_LIMIT, time_limit=TIME_LIMIT,
            )
            plans = [matcher.plan(q) for q in queries]
            peak = max((p.peak_shard_space_bytes for p in plans), default=0)
            best = None
            for _ in range(repeats):
                start = time.perf_counter()
                results = [matcher.execute(p) for p in plans]
                elapsed = time.perf_counter() - start
                best = elapsed if best is None else min(best, elapsed)
            agree = [r.num_matches for r in results] == base_counts
            merge_time = sum(r.merge_time for r in results)
            ratio = best / max(base_best, 1e-9)
            row = {
                "dataset": dataset,
                "query_size": size,
                "shards": shards,
                "agree": agree,
                "matches": sum(r.num_matches for r in results),
                "num_enumerations": sum(r.num_enumerations for r in results),
                "enum_time_s": round(best, 6),
                "unsharded_enum_time_s": round(base_best, 6),
                "vs_unsharded": round(ratio, 3),
                "merge_time_s": round(merge_time, 6),
                "peak_shard_space_bytes": int(peak),
                "unsharded_space_bytes": int(base_peak),
            }
            rows.append(row)
            print(
                f"  {dataset:<10} shards={shards}  "
                f"enum={best * 1e3:7.1f}ms ({ratio:5.2f}x unsharded)  "
                f"merge={merge_time * 1e3:5.1f}ms  "
                f"shard-peak={peak / 1024:7.1f}KiB "
                f"(vs {base_peak / 1024:7.1f}KiB)  "
                f"{'counts agree' if agree else 'COUNT DISAGREEMENT'}"
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
    gates the quick profile on both the win itself and regressions of
    the warm path against the committed baseline.
    """
    warm_pass_iters = 5  # passes per warm measurement: lifts the timed
    # region out of scheduler-jitter territory for the CI gate
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
# Baseline comparison (the CI perf gate)
# ---------------------------------------------------------------------------
def compare_against_baseline(report: dict, baseline: dict, tolerance: float) -> bool:
    """Gate this run against a committed baseline report.

    Output drift (match counts or ``#enum`` on any workload) is a hard
    failure — the enumeration's semantics are pinned.  Wall-clock may
    regress by at most ``tolerance`` (relative) on the aggregate
    enumeration time, compared **calibration-normalized**: both sides
    are divided by their own run's :func:`_calibrate` seconds, so a
    baseline recorded on one machine transfers to a faster or slower
    runner; improvements always pass.
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
    base_total = baseline.get("totals", {}).get("enum_time_s")
    this_total = report["totals"]["enum_time_s"]
    base_cal = baseline.get("totals", {}).get("calibration_s") or 1.0
    this_cal = report["totals"].get("calibration_s") or 1.0
    if base_total:
        base_norm = base_total / base_cal
        this_norm = this_total / this_cal
        budget = base_norm * (1.0 + tolerance)
        verdict = "ok" if this_norm <= budget else "WALL-CLOCK REGRESSION"
        print(
            f"  compare: enum wall-clock {this_total * 1e3:.1f}ms "
            f"(normalized {this_norm:.3f}) vs baseline {base_total * 1e3:.1f}ms "
            f"(normalized {base_norm:.3f}; budget {budget:.3f} "
            f"@ +{tolerance:.0%}) — {verdict}"
        )
        ok &= this_norm <= budget
    base_warm = baseline.get("plan_cache", {}).get("warm_plan_s")
    this_warm = report.get("plan_cache", {}).get("warm_plan_s")
    if base_warm and this_warm:
        # The cache-hit path is a perf surface of its own: gate it with
        # the same calibration-normalized tolerance as enumeration.
        base_norm = base_warm / base_cal
        this_norm = this_warm / this_cal
        budget = base_norm * (1.0 + tolerance)
        verdict = "ok" if this_norm <= budget else "CACHE-HIT REGRESSION"
        print(
            f"  compare: plan-cache warm pass {this_warm * 1e3:.1f}ms "
            f"(normalized {this_norm:.3f}) vs baseline {base_warm * 1e3:.1f}ms "
            f"(normalized {base_norm:.3f}; budget {budget:.3f} "
            f"@ +{tolerance:.0%}) — {verdict}"
        )
        ok &= this_norm <= budget
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
        help="baseline JSON to gate against (drift + wall-clock)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed relative wall-clock regression vs the baseline",
    )
    args = parser.parse_args(argv)

    workloads = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS
    repeats = 3 if args.quick else 5
    # Backend for the workload/sharded scenarios: CI's perf-smoke matrix
    # sets REPRO_BENCH_ENUM_STRATEGY=vectorized so output drift or a
    # wall-clock regression on the batched backend fails the build (the
    # baseline's counts are backend-independent — bit-identity is the
    # contract).
    enum_strategy = os.environ.get("REPRO_BENCH_ENUM_STRATEGY", "iterative")

    calibration = _calibrate()
    print(f"machine calibration: {calibration * 1e3:.1f}ms (reference load)")
    print(
        "end-to-end matching benchmark (plan + execute, facade, "
        f"enumerator={enum_strategy!r})"
    )
    rows = bench_end_to_end(workloads, repeats, enum_strategy)
    print("backend scenario (frontier-batched vectorized vs iterative)")
    backend = bench_backend(workloads, repeats)
    print("repeated-workload scenario (cold planning vs plan-cache hits)")
    plan_cache = bench_plan_cache(workloads, repeats)
    print("partitioned-matching scenario (edge-cut shards vs single shard)")
    sharded = bench_sharded(workloads, repeats, enum_strategy)

    report = {
        "schema": SCHEMA,
        "quick": bool(args.quick),
        "enum_strategy": enum_strategy,
        "workloads": rows,
        "backend": backend,
        "plan_cache": plan_cache,
        "sharded": sharded,
        "totals": {
            "matches": sum(r["matches"] for r in rows),
            "num_enumerations": sum(r["num_enumerations"] for r in rows),
            "enum_time_s": round(sum(r["enum_time_s"] for r in rows), 6),
            "calibration_s": round(calibration, 6),
        },
    }
    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"report written to {out_path}")

    ok = True
    if not backend["agree"]:
        print(
            "BACKEND FAILED: vectorized output differs from iterative "
            "(match sequences / #enum)"
        )
        ok = False
    if backend["speedup"] < 1.0:
        print(
            "BACKEND FAILED: vectorized backend slower than iterative "
            f"({backend['speedup']:.2f}x)"
        )
        ok = False
    if not plan_cache["warm_all_hits"]:
        print("PLAN-CACHE FAILED: warm pass missed the cache")
        ok = False
    if plan_cache["speedup"] < 1.0:
        print(
            "PLAN-CACHE FAILED: cache-hit planning slower than cold planning "
            f"({plan_cache['speedup']:.2f}x)"
        )
        ok = False
    if not all(row["agree"] for row in sharded):
        print("SHARDED FAILED: match counts disagree with the unsharded run")
        ok = False
    # Aggregate overhead gate per shard count: fan-out + merge must stay
    # within tolerance of the single-shard oracle's wall-clock.
    for shards in SHARD_COUNTS:
        group = [row for row in sharded if row["shards"] == shards]
        total = sum(row["enum_time_s"] for row in group)
        base_total = sum(row["unsharded_enum_time_s"] for row in group)
        if total > base_total * (1.0 + SHARDED_OVERHEAD_TOLERANCE):
            print(
                f"SHARDED FAILED: shards={shards} enumeration "
                f"{total / max(base_total, 1e-9):.2f}x unsharded "
                f"(tolerance +{SHARDED_OVERHEAD_TOLERANCE:.0%})"
            )
            ok = False
    if args.compare is not None:
        baseline = json.loads(Path(args.compare).read_text())
        ok &= compare_against_baseline(report, baseline, args.tolerance)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
