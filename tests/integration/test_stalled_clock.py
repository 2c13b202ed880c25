"""Counts are a function of the commit, not of the clock.

Training and the bench harness bound every run by an ``#enum`` budget,
never a deadline, so which rollouts train the policy and which queries
count as solved cannot depend on how fast the host is or what else it
runs.  Under a clock that jumps 1,000 s on every read — every deadline
would expire at its first check — a smoke training run must give
bitwise-equal weights and one ``Harness.evaluate`` cell equal counts.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro import Matcher
from repro.bench import BenchSettings, Harness
from repro.bench.experiments import summarize
from repro.core import RLQVOConfig, RLQVOTrainer
from repro.datasets import load_dataset, query_workload


@contextmanager
def stalled_clock():
    """``time.perf_counter`` advances 10^3 s per call inside the block."""
    start = time.perf_counter()
    ticks = itertools.count(1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(time, "perf_counter", lambda: start + 1e3 * next(ticks))
        yield


def _queries():
    data = load_dataset("yeast")
    return data, query_workload("yeast", 16, count=4, seed=0, data=data).all_queries


def _train():
    data, queries = _queries()
    config = RLQVOConfig(
        epochs=2, hidden_dim=16, train_match_limit=1_500, rollouts_per_query=2,
        track_best_policy=True, seed=0,
    )
    trainer = RLQVOTrainer(data, config)
    history = trainer.train(list(queries))
    return trainer.policy.state_dict(), history


def test_training_is_the_same_under_a_stalled_clock():
    weights, history = _train()
    with stalled_clock():
        stalled_weights, stalled_history = _train()
    assert weights.keys() == stalled_weights.keys()
    for name in weights:
        assert np.array_equal(weights[name], stalled_weights[name]), name
    counts = [
        (e.queries_used, e.queries_skipped, e.mean_enum_learned, e.greedy_enum_total)
        for e in history.epochs
    ]
    assert counts == [
        (e.queries_used, e.queries_skipped, e.mean_enum_learned, e.greedy_enum_total)
        for e in stalled_history.epochs
    ]
    # The runs are long enough that a deadline would have been read.
    data, queries = _queries()
    baseline = Matcher(data, match_limit=1_500, time_limit=None)
    assert max(baseline.match(q).num_enumerations for q in queries) > 2_048


def _counts(cell: dict) -> dict:
    return {key: cell[key] for key in ("enum", "queries", "solved", "solved_enum")}


def test_an_evaluated_cell_is_the_same_under_a_stalled_clock():
    settings = BenchSettings(query_count=8, enum_limit=300_000, match_limit=5_000)
    cell = summarize(Harness(settings).evaluate("ri", "yeast", size=16))
    with stalled_clock():
        stalled = summarize(Harness(settings).evaluate("ri", "yeast", size=16))
    assert _counts(stalled) == _counts(cell)
    assert max(e for e in cell["solved_enum"] if e is not None) > 2_048
