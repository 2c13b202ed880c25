"""Command-line entry point: ``repro-bench <experiment>``.

Runs at :class:`~repro.bench.harness.BenchSettings`' defaults, the size
the committed ``results/`` are made at; the ``REPRO_BENCH_*`` variables
override them.  With ``REPRO_RESULTS_DIR`` set, each experiment's tables
go to ``<id>.txt`` there and its counts into ``counts.json``; unset, the
CLI only prints.

Examples
--------
::

    repro-bench table2
    REPRO_BENCH_QUERIES=4 REPRO_BENCH_EPOCHS=3 repro-bench fig3
    REPRO_RESULTS_DIR=results repro-bench all
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment
from repro.bench.harness import BenchSettings, Harness
from repro.bench.reporting import results_dir

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the RL-QVO paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(ALL_EXPERIMENTS) + ["all"],
        help="experiment id (table/figure number) or 'all'",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    harness = Harness(BenchSettings.from_env())
    directory = results_dir()
    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        run_experiment(name, harness, directory)
        print(f"\n[{name}] completed in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
