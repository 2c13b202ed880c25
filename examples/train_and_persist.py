#!/usr/bin/env python3
"""Incremental training and model persistence (operations scenario).

Shows the workflow the paper's Sec. III-F/IV-F recommends for production:
fully train the ordering policy once on a cheap small-query set, persist
it, then fine-tune it incrementally for a new (larger) query size at a
fraction of the cost — and demonstrate save/load round-tripping through
the facade: ``Matcher(data, orderer="rl", model=<dir>)`` loads the saved
model exactly once at construction and then answers any number of
queries against it.

Usage::

    python examples/train_and_persist.py [model_dir]

Set ``REPRO_EXAMPLES_EPOCHS`` to shrink the training budget (CI smoke).
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from repro import (
    Matcher,
    RLQVOConfig,
    RLQVOTrainer,
    dataset_stats,
    load_dataset,
    query_workload,
    save_model,
)


def evaluate(matcher: Matcher, queries, label: str) -> None:
    """Total #enum of a prepared matcher over the evaluation queries."""
    total = sum(r.num_enumerations for r in matcher.match_many(queries))
    print(f"  {label}: total #enum on eval queries = {total}")


def main() -> None:
    model_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(tempfile.mkdtemp()) / "rlqvo-wordnet"
    )
    dataset = "wordnet"
    data = load_dataset(dataset)
    stats = dataset_stats(dataset)
    small = query_workload(dataset, size=8, count=10, seed=2)
    target = query_workload(dataset, size=16, count=10, seed=3)

    config = RLQVOConfig(
        epochs=int(os.environ.get("REPRO_EXAMPLES_EPOCHS", 8)),
        incremental_epochs=3,
        hidden_dim=32,
        train_match_limit=2000,
        seed=2,
    )
    trainer = RLQVOTrainer(data, config, stats=stats)

    def trained_matcher() -> Matcher:
        """Current policy behind a prepared facade (GQL + iterative)."""
        return Matcher(data, filter="gql", orderer=trainer.make_orderer(),
                       match_limit=5_000, time_limit=2.0, stats=stats)

    print(f"[1/4] pretraining on {small.name} ({len(small.train)} queries)")
    pre_history = trainer.train(list(small.train))
    print(f"      {pre_history.total_time:.1f}s")
    evaluate(trained_matcher(), target.eval, "pretrained-only on Q16")

    print(f"[2/4] incremental fine-tune on {target.name} "
          f"({config.incremental_epochs} epochs)")
    incr_history = trainer.train(
        list(target.train), epochs=config.incremental_epochs
    )
    print(f"      {incr_history.total_time:.1f}s "
          f"(vs {pre_history.total_time:.1f}s pretraining)")
    evaluate(trained_matcher(), target.eval, "incrementally tuned on Q16")

    print(f"[3/4] saving model to {model_dir}")
    save_model(trainer.policy, model_dir)

    print("[4/4] loading model back and re-evaluating")
    # The facade loads the saved policy once, at construction; every
    # query afterwards reuses the loaded model and the shared stats.
    reloaded = Matcher(data, filter="gql", orderer="rl", model=model_dir,
                       match_limit=5_000, time_limit=2.0, stats=stats)
    evaluate(reloaded, target.eval, "reloaded model  on Q16")

    sample = target.eval[0]
    assert reloaded.plan(sample).order == trained_matcher().plan(sample).order
    print("\nreloaded model reproduces the trained model's orders exactly.")


if __name__ == "__main__":
    main()
