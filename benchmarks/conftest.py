"""Shared fixtures for the benchmark suite.

One session-scoped :class:`Harness` is shared by all benchmarks so that
trained RL-QVO models, workloads and datasets are reused across
tables/figures (exactly as one evaluation run of the paper would).

Scale is the smoke size below, so the suite stays a small part of the
tier-1 run.  The ``REPRO_BENCH_*`` variables read by
:meth:`BenchSettings.from_env` override it; CI runs the figure tests a
second time at full size (``REPRO_BENCH_QUERIES=8 REPRO_BENCH_EPOCHS=10
REPRO_BENCH_ENUM_LIMIT=1000000``) under the same asserts.  The asserts
compare counts (``#enum``, solved / unsolved queries), never two
timings, and every run is bounded by an ``#enum`` budget, never a
deadline, so the counts are the same on every host and under any load.
For paper-scale runs use the ``repro-bench`` CLI with larger
``--queries`` / ``--epochs`` / ``--enum-limit``.

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
    "query_count": 4,
    "enum_limit": 300_000,
    "match_limit": 5_000,
    "train_epochs": 3,
    "incremental_epochs": 3,
    "train_match_limit": 1_500,
    "train_enum_limit": 400_000,
    "rollouts_per_query": 2,
    "hidden_dim": 32,
    "seed": 0,
}


def bench_settings() -> BenchSettings:
    """Benchmark-suite defaults, overridable via REPRO_BENCH_* env vars."""
    return BenchSettings.from_env(BenchSettings(**_DEFAULTS))


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
