"""A design-choice ablation beyond the paper's Fig. 7.

The reward squashing ``f_enum`` (absolute log-gap vs log-ratio), compared
on end-to-end order quality against RI.
"""

import math

from repro.bench.reporting import print_table
from repro.datasets import dataset_stats, load_dataset
from repro.matching import Enumerator, GQLFilter, RIOrderer
from repro.rl import RewardConfig


def _eval_total_enum(orderer, data, stats, queries, enumerator):
    gql = GQLFilter()
    total = 0
    for query in queries:
        candidates = gql.filter(query, data, stats)
        if candidates.has_empty():
            continue
        order = orderer.order(query, data, candidates, stats)
        total += enumerator.run(query, data, candidates, order).num_enumerations
    return total


def test_reward_squashing_ablation(benchmark, harness, record):
    """PPO/log vs PPO/log_ratio on one workload."""

    def run():
        dataset = "yeast"
        data = load_dataset(dataset)
        stats = dataset_stats(dataset)
        workload = harness.workload(dataset, 16)
        enumerator = Enumerator(
            match_limit=harness.settings.match_limit,
            time_limit=None,
            enum_limit=harness.settings.enum_limit,
        )
        variants = {
            "ppo-log": {},
            "ppo-logratio": {"reward": RewardConfig(fenum="log_ratio")},
        }
        payload = {
            "ri": _eval_total_enum(
                RIOrderer(), data, stats, workload.eval, enumerator
            )
        }
        for name, overrides in variants.items():
            config = harness.settings.rlqvo_config(**overrides)
            orderer, _ = harness.trained_orderer(dataset, 16, config=config)
            payload[name] = _eval_total_enum(
                orderer, data, stats, workload.eval, enumerator
            )
        rows = [[name, value] for name, value in payload.items()]
        print_table(
            ["variant", "total eval #enum"],
            rows,
            title="Ablation — reward squashing (yeast Q16)",
        )
        return payload

    payload = benchmark.pedantic(
        lambda: record("ablation_design", run), rounds=1, iterations=1
    )
    assert all(math.isfinite(v) and v >= 0 for v in payload.values())
