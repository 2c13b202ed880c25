"""Tests for the RL-QVO training loop."""

import dataclasses
import math

import numpy as np
import pytest

from repro.core import RLQVOConfig, RLQVOTrainer
from repro.errors import TrainingError
from repro.graphs import check_order, generate_query_set
from repro.rl import PPOStats


@pytest.fixture(scope="module")
def trainer(data_graph, data_stats):
    config = RLQVOConfig(
        epochs=2,
        hidden_dim=16,
        train_match_limit=500,
        train_time_limit=2.0,
        seed=5,
    )
    return RLQVOTrainer(data_graph, config, stats=data_stats)


@pytest.fixture(scope="module")
def train_queries(data_graph):
    return generate_query_set(data_graph, 5, 4, seed=77)


class TestTraining:
    def test_history_shape(self, trainer, train_queries):
        history = trainer.train(train_queries, epochs=2)
        assert len(history.epochs) == 2
        assert history.total_time > 0
        for stats in history.epochs:
            assert stats.queries_used + stats.queries_skipped == len(train_queries)
            assert stats.elapsed > 0

    def test_baselines_cached_across_epochs(self, trainer, train_queries):
        trainer.train(train_queries, epochs=1)
        cached = dict(trainer._baseline_enum)
        trainer.train(train_queries, epochs=1)
        assert dict(trainer._baseline_enum) == cached

    def test_empty_query_list_rejected(self, trainer):
        with pytest.raises(TrainingError):
            trainer.train([])

    def test_make_orderer_produces_valid_orders(self, trainer, train_queries, data_graph):
        trainer.train(train_queries, epochs=1)
        orderer = trainer.make_orderer()
        for query in train_queries:
            check_order(query, orderer.order(query, data_graph))

    def test_epoch_zero_training_is_noop(self, trainer, train_queries):
        history = trainer.train(train_queries, epochs=0)
        assert history.epochs == []

    def test_log_fn_called_per_epoch(self, trainer, train_queries):
        seen = []
        trainer.train(train_queries, epochs=2, log_fn=seen.append)
        assert [s.epoch for s in seen] == [0, 1]

    def test_ppo_diagnostics_reach_the_epoch_stats(self, trainer, train_queries):
        # PPOTrainer.update computes these every epoch; the trainer used
        # to keep only the loss.
        history = trainer.train(train_queries, epochs=2)
        for stats in history.epochs:
            assert 0.0 <= stats.clip_fraction <= 1.0
            assert stats.num_steps > 0
            assert stats.mean_ratio > 0.0
            assert stats.entropy >= 0.0
            assert stats.grad_norm > 0.0
            assert math.isfinite(stats.approx_kl)

    @pytest.mark.parametrize(
        "gnn_kind", ["gcn", "gat", "sage", "graphnn", "asap", "mlp"]
    )
    def test_first_pass_ratio_is_exactly_one(
        self, data_graph, data_stats, train_queries, gnn_kind
    ):
        # updates_per_epoch=1 makes the reported pass the first one, where
        # θ = θ′: the update must score each step exactly as it was
        # sampled (ROADMAP D(i)), whichever encoder the policy carries.
        config = RLQVOConfig(
            gnn_kind=gnn_kind, hidden_dim=16, train_match_limit=500,
            train_time_limit=2.0, seed=5, updates_per_epoch=1,
        )
        trainer = RLQVOTrainer(data_graph, config, stats=data_stats)
        for stats in trainer.train(train_queries, epochs=3).epochs:
            assert stats.num_steps > 0
            assert stats.mean_ratio == 1.0
            assert stats.clip_fraction == 0.0
            assert stats.approx_kl == 0.0
            assert (stats.passes, stats.first_pass_ratio) == (1, 1.0)

    @pytest.fixture(scope="class")
    def epoch_and_update(self, data_graph, data_stats, train_queries):
        """One epoch's stats and the PPOStats its update returned."""
        config = RLQVOConfig(
            hidden_dim=8, train_match_limit=200, train_time_limit=2.0, seed=5
        )
        trainer = RLQVOTrainer(data_graph, config, stats=data_stats)
        returned = []
        update = trainer.ppo.update

        def recording_update(trajectories):
            returned.append(update(trajectories))
            return returned[-1]

        trainer.ppo.update = recording_update
        (epoch,) = trainer.train(train_queries, epochs=1).epochs
        (ppo_stats,) = returned
        assert ppo_stats.num_steps > 0 and ppo_stats.passes > 0
        return epoch, ppo_stats

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(PPOStats)]
    )
    def test_epoch_stats_carry_the_update_stats(self, epoch_and_update, field):
        # PPO is the one updater: every diagnostic it reports is copied
        # as it is, with no default standing in for a missing one.
        epoch, ppo_stats = epoch_and_update
        assert getattr(epoch, field) == getattr(ppo_stats, field)

    def test_timers_reach_the_epoch_stats(self, trainer, train_queries):
        (stats,) = trainer.train(train_queries, epochs=1).epochs
        assert stats.time_sample > 0.0 and stats.time_train > 0.0
        assert stats.time_sample + stats.time_train < stats.elapsed


class TestHeldOutEvaluation:
    @pytest.fixture(scope="class")
    def held_out(self, data_graph):
        return generate_query_set(data_graph, 5, 4, seed=78)

    def _run(self, data_graph, data_stats, train_queries, **kwargs):
        config = RLQVOConfig(
            hidden_dim=16, train_match_limit=500, train_time_limit=2.0, seed=5
        )
        trainer = RLQVOTrainer(data_graph, config, stats=data_stats)
        history = trainer.train(train_queries, epochs=3, **kwargs)
        return trainer, history

    def test_reports_greedy_enum_against_ri(
        self, data_graph, data_stats, train_queries, held_out
    ):
        trainer, history = self._run(
            data_graph, data_stats, train_queries, eval_queries=held_out
        )
        ri_total = sum(trainer._prepare(q)[1] for q in held_out)
        assert ri_total > 0
        for stats in history.epochs:
            assert stats.heldout_enum > 0
            assert stats.heldout_ratio == stats.heldout_enum / ri_total
        # The last epoch's figure is the final policy's.
        assert trainer._greedy_enum_total(held_out) == history.epochs[-1].heldout_enum

    def test_evaluating_changes_neither_weights_nor_rng_stream(
        self, data_graph, data_stats, train_queries, held_out
    ):
        # The gated #enum must not depend on whether someone evaluates.
        plain, plain_history = self._run(data_graph, data_stats, train_queries)
        watched, watched_history = self._run(
            data_graph, data_stats, train_queries, eval_queries=held_out
        )
        a, b = plain.policy.state_dict(), watched.policy.state_dict()
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert (
            plain._rng.bit_generator.state == watched._rng.bit_generator.state
        )
        assert [s.loss for s in plain_history.epochs] == [
            s.loss for s in watched_history.epochs
        ]
        assert all(s.heldout_enum == 0 for s in plain_history.epochs)

    def test_empty_held_out_set_is_no_held_out_set(
        self, data_graph, data_stats, train_queries
    ):
        # [] must not select on a total of 0 (which epoch 0 would win).
        def run(eval_queries):
            config = RLQVOConfig(
                hidden_dim=16, train_match_limit=500, train_time_limit=2.0,
                seed=5, track_best_policy=True,
            )
            trainer = RLQVOTrainer(data_graph, config, stats=data_stats)
            history = trainer.train(train_queries, epochs=3, eval_queries=eval_queries)
            return trainer.policy.state_dict(), history

        (none_w, none_h), (empty_w, empty_h) = run(None), run([])
        assert all(np.array_equal(none_w[k], empty_w[k]) for k in none_w)
        assert [s.greedy_enum_total for s in empty_h.epochs] == [
            s.greedy_enum_total for s in none_h.epochs
        ]
        assert all(s.greedy_enum_total > 0 for s in empty_h.epochs)
        assert all(s.heldout_enum == 0 for s in empty_h.epochs)


class TestRewardOrientation:
    def test_better_than_baseline_yields_positive_reward(self, data_graph, data_stats):
        """Directly verify Δ#enum orientation through the trainer path."""
        from repro.rl import enumeration_reward

        assert enumeration_reward(10, 100) > 0 > enumeration_reward(100, 10)

    def test_skip_counting_for_impossible_queries(self, data_graph, data_stats):
        from repro.graphs import Graph

        config = RLQVOConfig(epochs=1, hidden_dim=8, train_match_limit=100)
        trainer = RLQVOTrainer(data_graph, config, stats=data_stats)
        impossible = Graph([999, 999], [(0, 1)])  # labels absent from data
        history = trainer.train([impossible], epochs=1)
        assert history.epochs[0].queries_used == 0
        assert history.epochs[0].queries_skipped == 1
