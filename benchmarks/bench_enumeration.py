"""Micro-benchmark: the enumeration engine's frame rule, A/B.

Runs the one enumeration engine over shared ``MatchingContext``s three
ways: every ``n-3`` frame forced per node, the walk calling the bulk
frontier on every prefix-bound one ("bulk" — an order whose two deepest
levels bind below the prefix takes no frame in any column), and the
engine's own per-frame choice.  Equal ``#enum``/match counts across the
three are the contract (non-zero exit on any disagreement); the
default's speedup over each extreme is printed, never gated.

Not collected by pytest (no ``test_`` prefix) — run it directly::

    PYTHONPATH=src python benchmarks/bench_enumeration.py [--quick]
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.graphs import Graph, chung_lu, erdos_renyi, extract_query
from repro.matching import (
    Enumerator,
    GQLFilter,
    MatchingContext,
    RIOrderer,
    enumeration_batch,
)

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
    print("engines agree" if engines_ok else "ENGINES DISAGREE")
    return 0 if engines_ok else 1


if __name__ == "__main__":
    sys.exit(main())
