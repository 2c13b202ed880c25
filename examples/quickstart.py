#!/usr/bin/env python3
"""Quickstart: train RL-QVO on a dataset and match queries with it.

Runs in under a minute: loads the (synthesized) Yeast dataset, trains the
ordering policy on a handful of Q16 queries, and compares the learned
matching order against the RI heuristic through the *prepare-once /
query-many* facade: one :class:`repro.Matcher` per method binds the data
graph (stats, indices, model) at construction, ``plan`` exposes the
inspectable :class:`repro.QueryPlan`, and ``match_many`` answers the
whole evaluation workload against the prepared state.

Usage::

    python examples/quickstart.py

Set ``REPRO_EXAMPLES_EPOCHS`` to shrink the training budget (CI smoke).
"""

from __future__ import annotations

import os

from repro import (
    Matcher,
    RLQVOConfig,
    RLQVOTrainer,
    dataset_stats,
    load_dataset,
    query_workload,
)


def main() -> None:
    # 1. Load a data graph and a Q16 query workload (Table III protocol:
    #    half the queries train the policy, half evaluate it).
    data = load_dataset("yeast")
    stats = dataset_stats("yeast")
    workload = query_workload("yeast", size=16, count=12, seed=0)
    print(f"data graph: {data}")
    print(f"workload: {workload.name}, {len(workload.train)} train / "
          f"{len(workload.eval)} eval queries")

    # 2. Train the RL-QVO ordering policy (small epoch budget for a demo;
    #    the paper uses 100 epochs).
    config = RLQVOConfig(
        epochs=int(os.environ.get("REPRO_EXAMPLES_EPOCHS", 20)),
        rollouts_per_query=2,
        hidden_dim=32,
        train_match_limit=2000,
        seed=0,
    )
    trainer = RLQVOTrainer(data, config, stats=stats)
    history = trainer.train(list(workload.train))
    print(f"trained {len(history.epochs)} epochs "
          f"in {history.total_time:.1f}s; "
          f"final mean return {history.final_mean_return:+.2f}")

    # 3. Prepare one matcher per method: the GQL filter, the orderer and
    #    the shared iterative enumerator are bound once, then reused for
    #    every query (the Hybrid baseline is just orderer="ri").
    matchers = {
        "rl-qvo": Matcher(data, filter="gql", orderer=trainer.make_orderer(),
                          match_limit=10_000, time_limit=5.0, stats=stats),
        "hybrid": Matcher(data, filter="gql", orderer="ri",
                          match_limit=10_000, time_limit=5.0, stats=stats),
    }

    # 4. Plans are inspectable before anything is enumerated.
    sample_plan = matchers["rl-qvo"].plan(workload.eval[0])
    print(f"\nplan for eval query 0: order={list(sample_plan.order)}")
    print(f"  candidate counts={list(sample_plan.candidate_counts)}, "
          f"estimated cost={sample_plan.estimated_cost:.1f}, "
          f"candidate space={sample_plan.candidate_space_bytes / 1024:.1f} kB, "
          f"planned in {sample_plan.build_time * 1e3:.1f} ms")

    # 5. Answer the whole evaluation workload against the prepared state.
    print(f"\n{'query':>5} | {'method':>7} | {'matches':>8} | {'#enum':>8} | time")
    totals = {name: 0 for name in matchers}
    for name, matcher in matchers.items():
        for i, result in enumerate(matcher.match_many(workload.eval)):
            totals[name] += result.num_enumerations
            print(f"{i:>5} | {name:>7} | {result.num_matches:>8} | "
                  f"{result.num_enumerations:>8} | {result.total_time * 1e3:7.1f}ms")

    print("\ntotal enumeration calls (lower is better):")
    for name, total in totals.items():
        print(f"  {name:>7}: {total}")


if __name__ == "__main__":
    main()
