"""Tests for the PPO trainer (Eq. 6–7)."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig
from repro.errors import TrainingError
from repro.graphs import generate_query_set
from repro.rl import PPOTrainer, collect_trajectory, rollout
from repro.rl.rollout import stack_steps

ENCODERS = ["gcn", "gat", "sage", "graphnn", "asap", "mlp"]


@pytest.fixture()
def setup(sampled_batch):
    return sampled_batch()


class TestPPOUpdate:
    @pytest.mark.parametrize("gnn_kind", ENCODERS)
    def test_update_changes_parameters(self, sampled_batch, gnn_kind):
        policy, trajectories = sampled_batch(gnn_kind=gnn_kind)
        before = {k: v.copy() for k, v in policy.state_dict().items()}
        trainer = PPOTrainer(
            policy,
            learning_rate=1e-2,
            updates_per_batch=1,
            normalize_advantages=False,
        )
        stats = trainer.update(trajectories)
        after = policy.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)
        assert stats.num_steps > 0

    @pytest.mark.parametrize("gnn_kind", ENCODERS)
    def test_first_pass_ratios_are_one(self, sampled_batch, gnn_kind):
        # θ = θ′ on the first pass: a bare trainer must score every step
        # exactly as it was sampled, whichever encoder the policy carries.
        policy, trajectories = sampled_batch(gnn_kind=gnn_kind)
        stats = PPOTrainer(policy, updates_per_batch=1).update(trajectories)
        assert stats.mean_ratio == 1.0
        assert stats.clip_fraction == 0.0
        assert stats.approx_kl == 0.0
        assert (stats.passes, stats.first_pass_ratio) == (1, 1.0)

    @staticmethod
    def _surrogate(policy, trajectories) -> float:
        """Σ_t reward_t · π(a_t|s_t)/π_old — the quantity PPO ascends."""
        total = 0.0
        for trajectory in trajectories:
            for t, step in trajectory.policy_steps():
                probs, _ = policy.evaluate(
                    step.features, trajectory.ctx, step.action_mask
                )
                ratio = float(probs[step.action]) / step.old_prob
                total += trajectory.rewards[t] * ratio
        return total

    def test_positive_rewards_increase_surrogate(self, setup):
        policy, trajectories = setup
        before = self._surrogate(policy, trajectories)
        trainer = PPOTrainer(
            policy,
            learning_rate=1e-3,
            updates_per_batch=1,
            normalize_advantages=False,
        )
        trainer.update(trajectories)
        assert self._surrogate(policy, trajectories) > before

    def test_negative_rewards_also_increase_surrogate(self, setup):
        # With negative rewards the maximizer pushes taken-action
        # probabilities *down*; the surrogate still ascends.
        policy, trajectories = setup
        for trajectory in trajectories:
            trajectory.rewards = [-1.0] * len(trajectory.steps)
        before = self._surrogate(policy, trajectories)
        PPOTrainer(
            policy,
            learning_rate=1e-3,
            updates_per_batch=1,
            normalize_advantages=False,
        ).update(trajectories)
        assert self._surrogate(policy, trajectories) > before

    def test_constant_rewards_are_normalized_to_zero_signal(self, setup):
        # Advantage normalization centres a constant-reward batch at zero,
        # so the update degenerates to a no-op (no learning signal).
        policy, trajectories = setup
        before = {k: v.copy() for k, v in policy.state_dict().items()}
        PPOTrainer(
            policy, learning_rate=1e-2, updates_per_batch=1,
            normalize_advantages=True,
        ).update(trajectories)
        after = policy.state_dict()
        for key in before:
            assert np.allclose(before[key], after[key])

    def test_normalized_update_with_mixed_rewards_learns(self, setup):
        # Mixed rewards survive normalization and produce a finite,
        # non-trivial parameter update.
        policy, trajectories = setup
        for trajectory in trajectories:
            n = len(trajectory.steps)
            trajectory.rewards = [1.0 if i % 2 == 0 else -1.0 for i in range(n)]
        before = {k: v.copy() for k, v in policy.state_dict().items()}
        PPOTrainer(
            policy, learning_rate=1e-3, updates_per_batch=1,
            normalize_advantages=True,
        ).update(trajectories)
        after = policy.state_dict()
        assert any(not np.allclose(before[k], after[k]) for k in before)
        assert all(np.isfinite(v).all() for v in after.values())

    def test_missing_rewards_rejected(self, setup):
        policy, trajectories = setup
        trajectories[0].rewards = []
        with pytest.raises(TrainingError, match="rewards"):
            PPOTrainer(policy).update(trajectories)

    def test_empty_batch_is_noop(self, setup):
        # Every rollout of an epoch skipped, or forced moves only: no
        # pass ran, so none is reported and the optimizer has not moved.
        policy, trajectories = setup
        forced_only = replace(
            trajectories[0],
            steps=[replace(s, computed=False) for s in trajectories[0].steps],
        )
        trainer = PPOTrainer(policy, updates_per_batch=2)
        before = {k: v.copy() for k, v in policy.state_dict().items()}
        for batch in ([], [forced_only]):
            stats = trainer.update(batch)
            assert (stats.passes, stats.num_steps) == (0, 0)
            assert (stats.mean_ratio, stats.first_pass_ratio) == (1.0, 1.0)
        assert trainer.optimizer._t == 0
        assert all(not m.any() and not v.any()
                   for m, v in zip(trainer.optimizer._m, trainer.optimizer._v))
        after = policy.state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_gradient_clipping_bounds_update(self, setup):
        policy, trajectories = setup
        for trajectory in trajectories:
            trajectory.rewards = [1e6] * len(trajectory.steps)  # huge rewards
        trainer = PPOTrainer(
            policy, learning_rate=1e-3, updates_per_batch=1, max_grad_norm=1.0
        )
        trainer.update(trajectories)
        for p in policy.parameters():
            assert np.isfinite(p.data).all()


class TestPasses:
    @pytest.mark.parametrize("gnn_kind", ENCODERS)
    def test_reports_passes_and_the_first_pass_ratio(self, sampled_batch, gnn_kind):
        policy, trajectories = sampled_batch(gnn_kind=gnn_kind)
        stats = PPOTrainer(
            policy, learning_rate=1e-2, updates_per_batch=3
        ).update(trajectories)
        # The diagnostics are the last pass's; the first pass ran at θ = θ′.
        assert (stats.passes, stats.first_pass_ratio) == (3, 1.0)
        assert stats.mean_ratio != 1.0


class TestPassMemory:
    @staticmethod
    def _pass_peak(data_graph, data_stats, num_queries: int) -> int:
        """Traced peak of one pass over ``num_queries`` seeded Q16 rollouts
        at the default width."""
        config = RLQVOConfig(seed=0)
        policy = PolicyNetwork(config)
        builder = FeatureBuilder(data_graph, config, data_stats)
        rng = np.random.default_rng(1234)
        trajectories = []
        queries = generate_query_set(data_graph, 16, num_queries, seed=21)
        for i, query in enumerate(queries):
            trajectory = collect_trajectory(policy, query, builder, rng)
            trajectory.rewards = [
                1.0 if (i + t) % 3 else -0.5 for t in range(len(trajectory.steps))
            ]
            trajectories.append(trajectory)
        batches = stack_steps(trajectories, False)
        assert sum(batch.weight.size for batch in batches) >= 8 * num_queries
        trainer = PPOTrainer(policy)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            trainer._one_pass(batches)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_one_pass_peak_does_not_grow_with_the_batch(self, data_graph, data_stats):
        # A pass holds one chunk's graph at a time, so four times the
        # trajectories (≈ 700 steps against ≈ 175) leave its peak where it
        # was: ≈ 15 units of R·h float64s, R = CHUNK_ROWS.  The whole
        # stacked batch at once grew it about 4x (≈ 150 → 600 units).
        small = self._pass_peak(data_graph, data_stats, 12)
        large = self._pass_peak(data_graph, data_stats, 48)
        unit = rollout.CHUNK_ROWS * RLQVOConfig().hidden_dim * 8
        assert large < 1.25 * small, f"peak grew {large / small:.2f}x"
        assert large / unit < 20.0, f"one pass peaked at {large / unit:.1f} units"


class TestValidation:
    def test_clip_epsilon_bounds(self, setup):
        policy, _ = setup
        with pytest.raises(TrainingError):
            PPOTrainer(policy, clip_epsilon=0.0)
        with pytest.raises(TrainingError):
            PPOTrainer(policy, clip_epsilon=1.0)

    def test_updates_per_batch_positive(self, setup):
        policy, _ = setup
        with pytest.raises(TrainingError):
            PPOTrainer(policy, updates_per_batch=0)
