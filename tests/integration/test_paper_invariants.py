"""Invariants stated or implied by the paper, checked end to end.

* The optimal order's #enum lower-bounds every method's (Fig. 6 logic).
* All compared methods return identical match sets (Sec. IV-C premise:
  shared enumeration means enumeration time reflects order quality only).
* The ordering overhead of RL-QVO is small relative to its enumeration
  work on non-trivial queries (Sec. III-G complexity claim).
"""

import pytest

from repro.bench.harness import METHODS, method_matcher
from repro.core import RLQVOConfig, RLQVOTrainer
from repro.graphs import GraphStats, chung_lu, generate_query_set
from repro.matching import ORDERERS, Enumerator, GQLFilter, OptimalOrderer


@pytest.fixture(scope="module")
def world():
    data = chung_lu(600, 5.0, 6, seed=9)
    stats = GraphStats(data)
    queries = generate_query_set(data, 5, 6, seed=3)
    return data, stats, queries


class TestOptimalLowerBound:
    def test_optimal_enum_lower_bounds_all_methods(self, world):
        data, stats, queries = world
        enumerator = Enumerator(match_limit=None, time_limit=5.0)
        gql = GQLFilter()
        for query in queries[:3]:
            candidates = gql.filter(query, data, stats)
            if candidates.has_empty():
                continue
            optimal = OptimalOrderer(match_limit=None)
            best_order = optimal.order(query, data, candidates, stats)
            best = enumerator.run(query, data, candidates, best_order)
            for name, (_, orderer_name) in METHODS.items():
                # Evaluate every ordering against the same candidates so
                # #enum is comparable.
                orderer = ORDERERS[orderer_name]()
                order = orderer.order(query, data, candidates, stats)
                run = enumerator.run(query, data, candidates, order)
                assert best.num_enumerations <= run.num_enumerations, name


class TestSharedEnumerationPremise:
    def test_all_methods_agree_on_match_count(self, world):
        data, stats, queries = world
        for query in queries[:3]:
            counts = set()
            for name in METHODS:
                matcher = method_matcher(
                    name, data, Enumerator(match_limit=None, time_limit=5.0),
                    stats=stats,
                )
                counts.add(matcher.match(query).num_matches)
            assert len(counts) == 1, f"methods disagree: {counts}"


class TestOrderingOverhead:
    def test_rlqvo_order_time_is_milliseconds(self, world):
        """Sec. IV-F claims order inference within 100 ms per query; our
        numpy policy should be well under that for small queries."""
        data, stats, queries = world
        config = RLQVOConfig(
            epochs=1, hidden_dim=16, train_match_limit=200
        )
        trainer = RLQVOTrainer(data, config, stats=stats)
        trainer.train(queries[:2], epochs=1)
        orderer = trainer.make_orderer()
        import time

        gql = GQLFilter()
        for query in queries:
            candidates = gql.filter(query, data, stats)
            start = time.perf_counter()
            orderer.order(query, data, candidates, stats)
            assert time.perf_counter() - start < 0.1


class TestTrainingHelps:
    """The regression ROADMAP D found: at the end-to-end benchmark's
    budget the learned order was *worse than the untrained policy's*,
    because PPO's update scored steps under fresh dropout masks the
    sampler never drew.  Counts only, so the test repeats exactly."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ten_epochs_beat_the_untrained_policy_on_held_out_queries(self, seed):
        from repro import Matcher
        from repro.datasets import dataset_stats, load_dataset, query_workload

        data, stats = load_dataset("yeast"), dataset_stats("yeast")
        # benchmarks/e2e/wl_rlqvo.py's pool: 12 training queries, then
        # the held-out sequence (its first 40 here).
        pool = query_workload("yeast", 16, count=52, seed=0, data=data).all_queries
        train, held_out = list(pool[:12]), pool[12:]

        def held_out_enum(orderer) -> int:
            matcher = Matcher(
                data, filter="gql", orderer=orderer, stats=stats,
                match_limit=200, time_limit=20.0,
            )
            return sum(matcher.match(q).num_enumerations for q in held_out)

        config = RLQVOConfig(
            epochs=10, train_match_limit=200, seed=seed
        )
        trainer = RLQVOTrainer(data, config, stats=stats)
        untrained = held_out_enum(trainer.make_orderer())
        history = trainer.train(train)
        assert all(e.first_pass_ratio == 1.0 for e in history.epochs)
        assert held_out_enum(trainer.make_orderer()) < untrained
