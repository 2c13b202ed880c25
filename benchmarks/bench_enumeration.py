"""Micro-benchmark: enumeration throughput + CSR construction/filtering.

Three sections, all doubling as coarse differential checks (non-zero exit
on any disagreement), so CI smoke runs fail the build on layout
regressions:

* the one enumeration engine over shared ``MatchingContext``s, three
  ways: every ``n-3`` frame forced per node, the walk calling the bulk
  frontier on every prefix-bound one ("bulk" — an order whose two
  deepest levels bind below the prefix takes no frame in any column),
  and the engine's own per-frame choice (equal ``#enum``/match counts are
  the contract; the default's speedup over each extreme is printed,
  never gated);
* graph construction — the vectorized CSR constructor against a
  replica of the old per-vertex-object build (Python set churn, one
  ndarray + frozenset per vertex);
* LDF/NLF/GQL filtering — the array implementations against replicas
  of the old per-vertex Python loops (identical candidate arrays are
  the contract).

Not collected by pytest (no ``test_`` prefix) — run it directly::

    PYTHONPATH=src python benchmarks/bench_enumeration.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

import numpy as np

from repro.graphs import Graph, GraphStats, chung_lu, erdos_renyi, extract_query
from repro.matching import (
    Enumerator,
    GQLFilter,
    LDFFilter,
    MatchingContext,
    NLFFilter,
    RIOrderer,
    enumeration_batch,
)
from repro.matching.bipartite import has_semi_perfect_matching

#: column -> the value ``FRONTIER_MIN_STEPS`` is forced to for it: no
#: frame reaches the first, every prefix-bound frame reaches the second
#: (the frontier takes no other shape), the third is the shipped
#: constant.  Forcing it is a measurement device (the engine takes it
#: from no caller), undone before the next column.
FRAME_MODES = {
    "per-node": sys.maxsize,
    "bulk": 0,
    "default": enumeration_batch.FRONTIER_MIN_STEPS,
}


def _workloads(quick: bool):
    sparse = chung_lu(400 if quick else 800, 6.0, 8, seed=7)
    dense = erdos_renyi(60 if quick else 80, 600 if quick else 1200, 2, seed=3)
    count = 3 if quick else 8
    size = 6 if quick else 8
    yield "sparse-powerlaw", sparse, count, size
    yield "dense-uniform", dense, count, size


def _deep_path(depth: int) -> Graph:
    return Graph(list(range(depth)), [(i, i + 1) for i in range(depth - 1)])


def bench_workload(name: str, data: Graph, count: int, size: int) -> bool:
    """Time the engine on one workload with its per-frame choice forced
    each way and left alone; returns True if all three agree."""
    rng = np.random.default_rng(5)
    instances = []
    for _ in range(count):
        query = extract_query(data, size, rng)
        candidates = GQLFilter().filter(query, data)
        if candidates.has_empty():
            continue
        order = RIOrderer().order(query, data, candidates)
        # One shared context per instance, exactly like the engine
        # pipeline: the candidate space is built once, outside the timed
        # enumeration loop.
        context = MatchingContext(query, data, candidates)
        context.ensure_space()
        instances.append((context, order))

    totals: dict[str, tuple[int, int, float]] = {}
    enumerator = Enumerator(match_limit=100_000, time_limit=30.0)
    for mode, min_steps in FRAME_MODES.items():
        enumeration_batch.FRONTIER_MIN_STEPS = min_steps
        try:
            enum_total = match_total = 0
            start = time.perf_counter()
            for context, order in instances:
                result = enumerator.run_context(context, order)
                enum_total += result.num_enumerations
                match_total += result.num_matches
            elapsed = time.perf_counter() - start
        finally:
            enumeration_batch.FRONTIER_MIN_STEPS = FRAME_MODES["default"]
        totals[mode] = (enum_total, match_total, elapsed)
        print(
            f"  {name:<18} {mode:<10} "
            f"#enum={enum_total:>10,}  matches={match_total:>9,}  "
            f"{elapsed:6.2f}s  {enum_total / max(elapsed, 1e-9) / 1e3:8.1f}k steps/s"
        )

    default = totals["default"]
    print(
        f"  {name:<18} speedup(default) = "
        + "  ".join(
            f"{totals[mode][2] / max(default[2], 1e-9):.2f}x vs {mode}"
            for mode in ("per-node", "bulk")
        )
    )
    agree = all(row[:2] == default[:2] for row in totals.values())
    if not agree:
        print(
            f"  {name}: ENGINE DISAGREEMENT "
            + " ".join(f"{mode}={row[:2]}" for mode, row in totals.items())
        )
    return agree


def bench_deep_path(quick: bool) -> bool:
    """The structural fix: a path deeper than the recursion limit."""
    depth = 2 * sys.getrecursionlimit()
    path = _deep_path(depth)
    from repro.matching import CandidateSets

    candidates = CandidateSets([[i] for i in range(depth)])
    order = list(range(depth))
    start = time.perf_counter()
    result = Enumerator(match_limit=None).run(path, path, candidates, order)
    elapsed = time.perf_counter() - start
    print(
        f"  deep-path({depth})   default    "
        f"#enum={result.num_enumerations:>10,}  matches={result.num_matches:>9,}  "
        f"{elapsed:6.2f}s"
    )
    return result.num_matches == 1


# ---------------------------------------------------------------------------
# CSR construction + filter micro-benchmark (vs per-vertex-object baseline)
# ---------------------------------------------------------------------------
def _baseline_build(labels, edges) -> list[np.ndarray]:
    """Replica of the pre-CSR Graph constructor's Python-object build."""
    n = len(labels)
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        u, v = int(u), int(v)
        seen.add((u, v) if u < v else (v, u))
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in seen:
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adjacency = []
    for nbrs in neighbor_sets:
        arr = np.fromiter(nbrs, dtype=np.int64, count=len(nbrs))
        arr.sort()
        adjacency.append(arr)
    _ = [frozenset(nbrs) for nbrs in neighbor_sets]
    return adjacency


def _baseline_ldf(query: Graph, data: Graph) -> list[list[int]]:
    """Replica of the pre-vectorization per-vertex LDF loop."""
    sets = []
    for u in query.vertices():
        lab, deg = query.label(u), query.degree(u)
        sets.append(
            [int(v) for v in data.vertices_with_label(lab) if data.degree(int(v)) >= deg]
        )
    return sets


def _baseline_nlf(query: Graph, data: Graph) -> list[list[int]]:
    """Replica of the pre-vectorization per-candidate Counter NLF loop."""
    query_nlf = [Counter(query.neighbor_labels(u)) for u in query.vertices()]
    data_nlf_cache: dict[int, Counter] = {}

    def data_nlf(v: int) -> Counter:
        cached = data_nlf_cache.get(v)
        if cached is None:
            cached = Counter(data.neighbor_labels(v))
            data_nlf_cache[v] = cached
        return cached

    sets = []
    for u in query.vertices():
        lab, deg = query.label(u), query.degree(u)
        need = query_nlf[u]
        survivors = []
        for v in data.vertices_with_label(lab):
            v = int(v)
            if data.degree(v) < deg:
                continue
            have = data_nlf(v)
            if all(have.get(lab, 0) >= c for lab, c in need.items()):
                survivors.append(v)
        sets.append(survivors)
    return sets


def _baseline_gql(query: Graph, data: Graph, rounds: int = 3) -> list[list[int]]:
    """Replica of the pre-array GQL filter: Counter profiles, set
    candidates, one Hopcroft–Karp call per ``(u, v)`` per round."""

    def profile(graph: Graph, v: int) -> Counter:
        return Counter([graph.label(v)] + graph.neighbor_labels(v))

    sets: list[set[int]] = []
    for u in query.vertices():
        need = profile(query, u)
        sets.append(
            {
                int(v)
                for v in data.vertices_with_label(query.label(u))
                if data.degree(int(v)) >= query.degree(u)
                and not need - profile(data, int(v))
            }
        )
    for _ in range(rounds):
        changed = False
        for u in query.vertices():
            query_nbrs = query.neighbors(u).tolist()
            if not query_nbrs:
                continue
            removals = []
            for v in sets[u]:
                data_nbrs = data.neighbors(v).tolist()
                adjacency = [
                    [i for i, w in enumerate(data_nbrs) if w in sets[u_prime]]
                    for u_prime in query_nbrs
                ]
                if not has_semi_perfect_matching(adjacency, len(data_nbrs)):
                    removals.append(v)
            if removals:
                sets[u].difference_update(removals)
                changed = True
        if not changed:
            break
    return [sorted(s) for s in sets]


def bench_construction_and_filters(quick: bool) -> bool:
    """Time CSR construction + LDF/NLF/GQL against the per-vertex baselines.

    The correctness gate is strict equality of filter outputs; speedups
    are reported per column so layout regressions show up in CI logs.
    """
    n = 3_000 if quick else 10_000
    data = chung_lu(n, 8.0, 12, seed=11)
    labels = data.labels.tolist()
    edges = list(data.edges())
    rng = np.random.default_rng(17)
    queries = [extract_query(data, 8, rng) for _ in range(4 if quick else 10)]
    # One stats object across the workload, like the engine pipeline —
    # this is what lets the label-neighbour index NLF and GQL read
    # amortize across queries.
    stats = GraphStats(data)

    ok = True

    start = time.perf_counter()
    _baseline_build(labels, edges)
    t_old_build = time.perf_counter() - start
    start = time.perf_counter()
    rebuilt = Graph(labels, edges)
    t_new_build = time.perf_counter() - start
    ok &= rebuilt == data
    print(
        f"  graph-construction  |V|={n:,} |E|={len(edges):,}  "
        f"per-vertex={t_old_build * 1e3:7.1f}ms  csr={t_new_build * 1e3:7.1f}ms  "
        f"speedup={t_old_build / max(t_new_build, 1e-9):5.2f}x"
    )

    for name, flt, baseline in (
        ("ldf-filter", LDFFilter(), _baseline_ldf),
        ("nlf-filter", NLFFilter(), _baseline_nlf),
        ("gql-filter", GQLFilter(), _baseline_gql),
    ):
        start = time.perf_counter()
        expected = [baseline(q, data) for q in queries]
        t_old = time.perf_counter() - start
        start = time.perf_counter()
        got = [flt.filter(q, data, stats) for q in queries]
        t_new = time.perf_counter() - start
        agree = all(
            [arr.tolist() for arr in (cs.array(u) for u in range(cs.num_query_vertices))]
            == ref
            for cs, ref in zip(got, expected)
        )
        if not agree:
            print(f"  {name}: FILTER DISAGREEMENT with per-vertex baseline")
        ok &= agree
        print(
            f"  {name:<18}  {len(queries)} queries       "
            f"per-vertex={t_old * 1e3:7.1f}ms  vectorized={t_new * 1e3:7.1f}ms  "
            f"speedup={t_old / max(t_new, 1e-9):5.2f}x"
        )
    return ok


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workloads for CI"
    )
    args = parser.parse_args(argv)

    print("enumeration micro-benchmark (n-3 frames per node / in bulk / by width)")
    engines_ok = True
    for name, data, count, size in _workloads(args.quick):
        engines_ok &= bench_workload(name, data, count, size)
    engines_ok &= bench_deep_path(args.quick)
    print("construction/filter micro-benchmark (CSR vs per-vertex objects)")
    layout_ok = bench_construction_and_filters(args.quick)
    print("engines agree" if engines_ok else "ENGINES DISAGREE")
    print(
        "construction/filter layout agrees"
        if layout_ok
        else "CONSTRUCTION/FILTER LAYOUT DISAGREES with per-vertex baseline"
    )
    return 0 if engines_ok and layout_ok else 1


if __name__ == "__main__":
    sys.exit(main())
