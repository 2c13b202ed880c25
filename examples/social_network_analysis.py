#!/usr/bin/env python3
"""Community-pattern queries on a social network (data-analytics scenario).

Social networks are one of the paper's headline workloads (DBLP, Youtube).
This example extracts realistic query patterns *from* the synthesized DBLP
graph — collaboration cliques, co-author chains — then benchmarks the full
method matrix of the paper's Fig. 3 (QSI, RI, VF2++, GQL, VEQ, Hybrid and
a freshly trained RL-QVO) on those queries.  Each method is spelled as a
pair of *component names* (filter name, orderer name) resolved by the
:class:`repro.Matcher` facade; one prepared matcher per method answers
the whole workload via ``match_many``.

Usage::

    python examples/social_network_analysis.py

Set ``REPRO_EXAMPLES_EPOCHS`` to shrink the training budget (CI smoke).
"""

from __future__ import annotations

import os
import time

from repro import Matcher, RLQVOConfig, RLQVOTrainer, dataset_stats, load_dataset
from repro.bench import METHODS
from repro.datasets import query_workload

#: Fig. 3 method matrix as plain component names — exactly what a config
#: file or CLI flag would carry: the benchmark harness's baseline table
#: plus RL-QVO, whose orderer (``None``) is the trained policy.
METHOD_COMPONENTS = {**METHODS, "rlqvo": ("gql", None)}


def main() -> None:
    dataset = "dblp"
    data = load_dataset(dataset)
    stats = dataset_stats(dataset)
    print(f"social graph: {data} (synthesized DBLP stand-in)")

    # Q16 collaboration patterns, 6 to train the learned orderer, 6 to test.
    workload = query_workload(dataset, size=16, count=12, seed=1)
    print(f"workload: {workload.name} — {len(workload.train)} train / "
          f"{len(workload.eval)} eval collaboration patterns\n")

    print("training RL-QVO ordering policy ...")
    trainer = RLQVOTrainer(
        data,
        RLQVOConfig(
            epochs=int(os.environ.get("REPRO_EXAMPLES_EPOCHS", 20)),
            rollouts_per_query=2,
            hidden_dim=32,
            train_match_limit=2000,
            seed=1,
        ),
        stats=stats,
    )
    start = time.perf_counter()
    trainer.train(list(workload.train))
    print(f"... done in {time.perf_counter() - start:.1f}s\n")

    print(f"{'method':>8} | {'total time':>10} | {'total #enum':>12} | unsolved")
    for method, (filter_name, orderer_name) in METHOD_COMPONENTS.items():
        matcher = Matcher(
            data,
            filter=filter_name,
            orderer=orderer_name if orderer_name else trainer.make_orderer(),
            match_limit=10_000,
            time_limit=3.0,
            stats=stats,
        )
        total_time = 0.0
        total_enum = 0
        unsolved = 0
        for result in matcher.match_many(workload.eval):
            total_time += result.total_time if result.solved else 3.0
            total_enum += result.num_enumerations
            unsolved += 0 if result.solved else 1
        print(f"{method:>8} | {total_time:9.2f}s | {total_enum:>12} | {unsolved}")

    print("\n(The shared enumeration procedure means the #enum column "
          "directly compares matching-order quality.)")


if __name__ == "__main__":
    main()
