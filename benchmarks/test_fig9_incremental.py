"""Fig. 9 — incremental training vs full training vs pretrained-only.

Paper shape: incremental training saves ~two orders of magnitude of
training time at negligible query-time cost; the pretrained-only model is
noticeably worse.  Training time is reported, not asserted — the
ordering the paper draws follows from the epochs each regime runs, and
those are what this test pins, together with every regime yielding an
orderer that evaluates the whole query set.
"""

import math

from repro.bench.experiments import fig9

_DATASETS = ("citeseer", "wordnet")


def test_fig9_incremental_training(benchmark, harness, record):
    payload = benchmark.pedantic(
        lambda: record("fig9", fig9, harness, _DATASETS, 8),
        rounds=1,
        iterations=1,
    )
    settings = harness.settings
    for dataset in _DATASETS:
        regimes = payload[dataset]
        eval_queries = len(harness.workload(dataset).eval)
        assert set(regimes) == {"full", "incremental", "pretrained"}
        for regime, info in regimes.items():
            assert math.isfinite(info["time"]), (dataset, regime)
            assert info["train_time"] > 0
            assert info["queries"] == eval_queries
            assert 0 <= info["solved"] <= info["queries"]
            assert info["enum"] >= info["queries"]
        # Incremental = pretraining + the fine-tune epochs: it always costs
        # more than pretrained alone, and what it adds is
        # ``incremental_epochs`` against full training's ``train_epochs``.
        assert regimes["full"]["train_epochs"] == settings.train_epochs
        assert regimes["pretrained"]["train_epochs"] == settings.train_epochs
        assert (
            regimes["incremental"]["train_epochs"]
            == settings.train_epochs + settings.incremental_epochs
        )
