"""Command-line entry point: ``repro-bench <experiment> [...]``.

Examples
--------
::

    repro-bench table2
    repro-bench fig3 --queries 8 --epochs 6
    repro-bench all --enum-limit 1000000
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import BenchSettings, Harness

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
    parser.add_argument("--queries", type=int, help="queries per workload")
    parser.add_argument("--epochs", type=int, help="RL-QVO training epochs")
    parser.add_argument(
        "--enum-limit", type=int,
        help="per-query #enum budget; a query that needs more steps is "
        "unsolved (the count form of the paper's 500 s cap)",
    )
    parser.add_argument("--match-limit", type=str, help="match cap or 'none'")
    parser.add_argument("--seed", type=int, help="workload / training seed")
    return parser


def _settings_from_args(args: argparse.Namespace) -> BenchSettings:
    settings = BenchSettings.from_env()
    updates = {}
    if args.queries is not None:
        updates["query_count"] = args.queries
    if args.epochs is not None:
        updates["train_epochs"] = args.epochs
    if args.enum_limit is not None:
        updates["enum_limit"] = args.enum_limit
    if args.match_limit is not None:
        updates["match_limit"] = (
            None if args.match_limit.lower() == "none" else int(args.match_limit)
        )
    if args.seed is not None:
        updates["seed"] = args.seed
    if updates:
        from dataclasses import replace

        settings = replace(settings, **updates)
    return settings


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    settings = _settings_from_args(args)
    harness = Harness(settings)
    names = sorted(ALL_EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        ALL_EXPERIMENTS[name](harness)
        print(f"\n[{name}] completed in {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
