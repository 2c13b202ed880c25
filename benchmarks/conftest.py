"""Shared fixtures for the benchmark suite.

One session-scoped :class:`Harness` is shared by all benchmarks so that
trained RL-QVO models, workloads and datasets are reused across
tables/figures (exactly as one evaluation run of the paper would).

Scale is controlled by ``REPRO_BENCH_*`` environment variables; the
defaults below are sized for a complete suite run in tens of minutes on a
laptop.  For paper-scale runs use the ``repro-bench`` CLI with larger
``--queries`` / ``--epochs`` / ``--time-limit``.

Each experiment's printed tables are also written to ``<id>.txt`` so the
regenerated figures survive pytest's output capture — into a pytest temp
directory by default, because most tables carry wall-clock columns and a
test run must not rewrite tracked files.  ``REPRO_RESULTS_DIR=results``
is the one deliberate way to regenerate the committed ``results/``.
"""

from __future__ import annotations

import contextlib
import io
import os
from pathlib import Path

import pytest

from repro.bench import BenchSettings, Harness

_DEFAULTS = {
    "query_count": 8,
    "time_limit": 1.0,
    "match_limit": 5_000,
    "train_epochs": 10,
    "incremental_epochs": 3,
    "train_match_limit": 1_500,
    "train_time_limit": 0.4,
    "rollouts_per_query": 2,
    "hidden_dim": 32,
    "seed": 0,
}


def bench_settings() -> BenchSettings:
    """Benchmark-suite defaults, overridable via REPRO_BENCH_* env vars."""
    settings = BenchSettings(**_DEFAULTS)
    env = BenchSettings.from_env()
    overrides = {}
    for field in (
        "query_count",
        "time_limit",
        "match_limit",
        "train_epochs",
        "seed",
    ):
        env_value = getattr(env, field)
        if env_value != getattr(BenchSettings(), field):
            overrides[field] = env_value
    if overrides:
        from dataclasses import replace

        settings = replace(settings, **overrides)
    return settings


@pytest.fixture(scope="session")
def harness() -> Harness:
    """The shared experiment harness (models/workloads cached inside)."""
    return Harness(bench_settings())


@pytest.fixture(scope="session")
def results_dir(tmp_path_factory) -> Path:
    if "REPRO_RESULTS_DIR" not in os.environ:
        return tmp_path_factory.mktemp("results")
    path = Path(os.environ["REPRO_RESULTS_DIR"])
    path.mkdir(parents=True, exist_ok=True)
    return path


@pytest.fixture()
def record(results_dir):
    """Run an experiment, echo its tables, and tee them to ``results_dir``."""

    def _record(name: str, fn, *args, **kwargs):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            payload = fn(*args, **kwargs)
        text = buffer.getvalue()
        print(text)
        (results_dir / f"{name}.txt").write_text(text)
        return payload

    return _record
