"""Experiment harness regenerating every table and figure of the paper."""

from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment
from repro.bench.harness import (
    FIG3_METHODS,
    METHODS,
    BenchSettings,
    Harness,
    QueryOutcome,
    method_matcher,
)
from repro.bench.reporting import (
    format_seconds,
    format_table,
    geometric_mean,
    percentile_series,
    print_table,
    results_dir,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "BenchSettings",
    "FIG3_METHODS",
    "Harness",
    "METHODS",
    "QueryOutcome",
    "format_seconds",
    "format_table",
    "geometric_mean",
    "method_matcher",
    "percentile_series",
    "print_table",
    "results_dir",
    "run_experiment",
]
