"""Tests for best-checkpoint tracking in the trainer."""

import pytest

from repro.core import RLQVOConfig, RLQVOTrainer
from repro.graphs import generate_query_set


@pytest.fixture(scope="module")
def setup(data_graph, data_stats):
    queries = generate_query_set(data_graph, 5, 4, seed=55)
    return data_graph, data_stats, queries


class TestBestCheckpoint:
    def test_disabled_by_default(self, setup):
        data, stats, queries = setup
        config = RLQVOConfig(
            epochs=2, hidden_dim=16, train_match_limit=300
        )
        trainer = RLQVOTrainer(data, config, stats=stats)
        history = trainer.train(queries)
        assert all(e.greedy_enum_total == 0 for e in history.epochs)

    def test_tracking_records_greedy_totals(self, setup):
        data, stats, queries = setup
        config = RLQVOConfig(
            epochs=3,
            hidden_dim=16,
            train_match_limit=300,
            track_best_policy=True,
        )
        trainer = RLQVOTrainer(data, config, stats=stats)
        history = trainer.train(queries)
        assert all(e.greedy_enum_total > 0 for e in history.epochs)

    def test_final_policy_matches_best_epoch(self, setup):
        data, stats, queries = setup
        config = RLQVOConfig(
            epochs=4,
            hidden_dim=16,
            train_match_limit=300,
            track_best_policy=True,
            seed=3,
        )
        trainer = RLQVOTrainer(data, config, stats=stats)
        history = trainer.train(queries)
        best = min(e.greedy_enum_total for e in history.epochs)
        # Re-measure the restored policy greedily: must match the best epoch.
        measured = trainer._greedy_enum_total(queries)
        assert measured == best

    def test_greedy_evaluation_does_not_change_training(self, setup):
        # The per-epoch greedy evaluation (which wraps the policy in an
        # orderer) must not steer what is learned: same losses with
        # tracking on and off.
        data, stats, queries = setup

        def losses(track):
            config = RLQVOConfig(
                epochs=3, hidden_dim=16, train_match_limit=300,
                track_best_policy=track,
            )
            history = RLQVOTrainer(data, config, stats=stats).train(queries)
            return [e.loss for e in history.epochs]

        assert losses(True) == losses(False)

    def test_selects_on_the_held_out_set_when_given(self, setup):
        data, stats, queries = setup
        held_out = generate_query_set(data, 5, 4, seed=56)
        config = RLQVOConfig(
            epochs=4, hidden_dim=16, train_match_limit=300,
            track_best_policy=True, seed=3,
        )
        trainer = RLQVOTrainer(data, config, stats=stats)
        history = trainer.train(queries, eval_queries=held_out)
        # The training set is no longer evaluated, let alone selected on.
        assert all(e.greedy_enum_total == 0 for e in history.epochs)
        best = min(e.heldout_enum for e in history.epochs)
        assert trainer._greedy_enum_total(held_out) == best
