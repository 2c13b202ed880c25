"""Integration tests spanning the whole pipeline.

These are the "does the paper's story hold" tests: the trained RL-QVO
policy plugs into the Hybrid pipeline, produces valid orders, its match
results agree with every baseline, and saved models reproduce orders
bit-for-bit.
"""

import pytest

from repro.core import RLQVOConfig, RLQVOTrainer, load_model, save_model
from repro.core.orderer import RLQVOOrderer
from repro import Matcher
from repro.graphs import GraphStats, check_order, chung_lu, generate_query_set
from repro.matching import Enumerator, GQLFilter, RandomOrderer, RIOrderer


@pytest.fixture(scope="module")
def world():
    data = chung_lu(1200, 6.0, 10, seed=42)
    stats = GraphStats(data)
    train_queries = generate_query_set(data, 6, 10, seed=1)
    eval_queries = generate_query_set(data, 6, 10, seed=2)
    config = RLQVOConfig(
        epochs=15,
        hidden_dim=24,
        train_match_limit=1500,
        seed=7,
    )
    trainer = RLQVOTrainer(data, config, stats=stats)
    history = trainer.train(train_queries)
    return data, stats, trainer, history, eval_queries


class TestTrainedPipeline:
    def test_training_produced_epochs(self, world):
        *_, history, _ = world[:4], world[3], world[4]
        _, _, _, history, _ = world
        assert len(history.epochs) == 15
        assert all(e.queries_used > 0 for e in history.epochs)

    def test_learned_orders_valid_on_unseen_queries(self, world):
        data, stats, trainer, _, eval_queries = world
        orderer = trainer.make_orderer()
        for query in eval_queries:
            check_order(query, orderer.order(query, data))

    def test_match_counts_agree_with_baselines(self, world):
        data, stats, trainer, _, eval_queries = world
        enumerator = Enumerator(match_limit=None, time_limit=10.0)
        gql = GQLFilter()
        orderers = [trainer.make_orderer(), RIOrderer(), RandomOrderer(seed=0)]
        for query in eval_queries[:4]:
            candidates = gql.filter(query, data, stats)
            if candidates.has_empty():
                continue
            counts = set()
            for orderer in orderers:
                order = orderer.order(query, data, candidates, stats)
                counts.add(
                    enumerator.run(query, data, candidates, order).num_matches
                )
            assert len(counts) == 1

    def test_learned_order_competitive_with_baseline(self, world):
        """RL-QVO's total #enum on held-out queries beats the random
        orderer and stays within 2x of RI (it usually wins; the bound
        guards against flaky seeds)."""
        data, stats, trainer, _, eval_queries = world
        enumerator = Enumerator(match_limit=1500, time_limit=5.0)
        gql = GQLFilter()
        totals = {"rlqvo": 0, "ri": 0, "random": 0}
        orderers = {
            "rlqvo": trainer.make_orderer(),
            "ri": RIOrderer(),
            "random": RandomOrderer(seed=3),
        }
        for query in eval_queries:
            candidates = gql.filter(query, data, stats)
            if candidates.has_empty():
                continue
            for name, orderer in orderers.items():
                order = orderer.order(query, data, candidates, stats)
                totals[name] += enumerator.run(
                    query, data, candidates, order
                ).num_enumerations
        assert totals["rlqvo"] < totals["random"]
        assert totals["rlqvo"] <= 2 * totals["ri"]

    def test_facade_integration(self, world):
        data, stats, trainer, _, eval_queries = world
        matcher = Matcher(
            data, filter="gql", orderer=trainer.make_orderer(),
            match_limit=500, stats=stats,
        )
        result = matcher.match(eval_queries[0])
        assert result.order_time > 0
        assert sorted(result.order) == list(range(6))


class TestModelPersistence:
    def test_saved_model_reproduces_orders(self, world, tmp_path):
        data, stats, trainer, _, eval_queries = world
        save_model(trainer.policy, tmp_path / "model")
        loaded = load_model(tmp_path / "model")
        reloaded_orderer = RLQVOOrderer(loaded, trainer.feature_builder)
        original_orderer = trainer.make_orderer()
        for query in eval_queries[:5]:
            assert original_orderer.order(query, data) == reloaded_orderer.order(
                query, data
            )
