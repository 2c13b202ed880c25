"""Shared fixtures for the benchmark suite.

One session-scoped :class:`Harness` is shared by all benchmarks so that
trained RL-QVO models, workloads and datasets are reused across
tables/figures (exactly as one evaluation run of the paper would).

Each figure test runs its experiment from
:data:`~repro.bench.experiments.ALL_EXPERIMENTS` through
:func:`~repro.bench.experiments.run_experiment`, the path ``repro-bench``
takes, with the experiment's own defaults.  Scale is the smoke size
below (4 queries, 3 epochs, a 300,000-step ``#enum`` budget; every other
setting is :class:`BenchSettings`' default), so the suite stays a small
part of the tier-1 run.  The ``REPRO_BENCH_*`` variables read by
:meth:`BenchSettings.from_env` override it; CI runs the figure tests a
second time at full size (``REPRO_BENCH_QUERIES=8 REPRO_BENCH_EPOCHS=10
REPRO_BENCH_ENUM_LIMIT=1000000``, which is ``BenchSettings()``) under the
same asserts.  The asserts compare counts (``#enum``, solved / unsolved
queries), never two timings, and every run is bounded by an ``#enum``
budget, never a deadline, so the counts are the same on every host and
under any load.

Each experiment's tables go to ``<id>.txt`` and its counts into
``counts.json`` — in ``REPRO_RESULTS_DIR`` when it is set, else in a
pytest temp directory, because a test run must not rewrite tracked
files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench import BenchSettings, Harness, results_dir, run_experiment

_SMOKE = BenchSettings(query_count=4, train_epochs=3, enum_limit=300_000)


@pytest.fixture(scope="session")
def harness() -> Harness:
    """The shared experiment harness (models/workloads cached inside)."""
    return Harness(BenchSettings.from_env(_SMOKE))


@pytest.fixture(scope="session")
def record_dir(tmp_path_factory) -> Path:
    return results_dir() or tmp_path_factory.mktemp("results")


@pytest.fixture()
def record(harness, record_dir):
    """Run an experiment by id; echo, record and return its payload."""
    return lambda name: run_experiment(name, harness, record_dir)
