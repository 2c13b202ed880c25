"""The chunked stacked update against the per-step loops it replaced.

``stack_steps`` turns an update's policy steps into ``(S, n, ·)`` chunks
of at most ``CHUNK_ROWS`` rows and PPO scores each with one ``forward`` /
``backward``, one gradient step per pass; ``per_step_oracle`` is the old
one-step-at-a-time code.  Same loss, same gradient for every parameter
(1e-9: the sums run in another order), and a first-pass ratio of exactly
1.0, for every encoder and under three row budgets — one step per chunk,
three steps of the larger query per chunk, and the shipped budget — on a
batch that mixes two query sizes, forced steps and a trajectory the
policy never acted in.
"""

import numpy as np
import pytest
from per_step_oracle import per_step_loss

from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig
from repro.graphs import Graph, generate_query_set
from repro.rl import PPOTrainer, collect_trajectory, rollout
from repro.rl.rollout import stack_steps

ENCODERS = ["gcn", "gat", "sage", "graphnn", "asap", "mlp"]
#: Row budgets for the 6- and 4-vertex batch below: one step per chunk at
#: both sizes, three 6-vertex (four 4-vertex) steps, and the shipped one.
ROW_BUDGETS = {"one-step": 6, "three-steps": 18, "shipped": rollout.CHUNK_ROWS}


@pytest.fixture(params=list(ROW_BUDGETS))
def row_budget(request, monkeypatch) -> int:
    """Run the test under each row budget of :data:`ROW_BUDGETS`."""
    rows = ROW_BUDGETS[request.param]
    monkeypatch.setattr(rollout, "CHUNK_ROWS", rows)
    return rows


@pytest.fixture()
def mixed_batch(data_graph, data_stats, queries, rng):
    """``make(gnn_kind)`` → (policy, trajectories): 6- and 4-vertex
    queries interleaved, a path (forced moves) and a single vertex (no
    policy step), every step with a reward of its own."""

    def make(gnn_kind: str):
        config = RLQVOConfig(gnn_kind=gnn_kind, hidden_dim=8, seed=3)
        policy = PolicyNetwork(config)
        builder = FeatureBuilder(data_graph, config, data_stats)
        small = generate_query_set(data_graph, 4, 2, seed=5)
        path = Graph([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3)])
        lone = Graph([0], [])
        trajectories = []
        for query in (queries[0], small[0], lone, queries[1], path, small[1]):
            trajectory = collect_trajectory(policy, query, builder, rng)
            trajectory.rewards = list(rng.normal(size=len(trajectory.steps)))
            trajectories.append(trajectory)
        return policy, trajectories

    return make


def test_the_batch_is_the_one_the_docstring_promises(mixed_batch, row_budget):
    _, trajectories = mixed_batch("gcn")
    assert {len(t.steps) for t in trajectories} == {6, 4, 1}
    assert trajectories[2].policy_steps() == []
    assert any(not s.computed for s in trajectories[4].steps[:-1])
    batches = stack_steps(trajectories)
    sizes = [b.features.shape[1] for b in batches]
    # Each size's chunks are consecutive and full but for the last.
    assert sizes == sorted(sizes, reverse=True) and set(sizes) == {6, 4}
    for n in (6, 4):
        counts = [b.weight.size for b in batches if b.features.shape[1] == n]
        cap = max(1, row_budget // n)
        assert all(c == cap for c in counts[:-1]) and 0 < counts[-1] <= cap
    for batch in batches:
        steps, n = batch.action_mask.shape
        assert batch.features.shape == (steps, n, 7)
        assert batch.ctx.norm_adj.shape == (steps, n, n)
        assert batch.ctx.attention_mask.shape == (steps, n, n)
        assert batch.chosen.sum(axis=-1).tolist() == [1.0] * steps
        assert batch.old_prob.shape == batch.weight.shape == (steps,)
    num_steps = sum(len(t.policy_steps()) for t in trajectories)
    assert sum(b.weight.size for b in batches) == num_steps
    if row_budget == ROW_BUDGETS["one-step"]:
        assert len(batches) == num_steps
    if row_budget == ROW_BUDGETS["shipped"]:
        assert sizes == [6, 4]


@pytest.mark.parametrize("gnn_kind", ENCODERS)
def test_stacked_forward_rows_equal_single_step_forwards(
    mixed_batch, gnn_kind, row_budget
):
    policy, trajectories = mixed_batch(gnn_kind)
    steps = {
        size: iter(
            [
                (trajectory.ctx, step)
                for trajectory in trajectories
                for _, step in trajectory.policy_steps()
                if len(step.action_mask) == size
            ]
        )
        for size in (6, 4)
    }
    for batch in stack_steps(trajectories):
        stacked = policy.forward(batch.features, batch.ctx, batch.action_mask)
        rows = steps[batch.action_mask.shape[1]]
        assert stacked.entropy.shape == batch.weight.shape
        for row in range(batch.weight.size):
            ctx, step = next(rows)
            single = policy.forward(step.features, ctx, step.action_mask)
            for name in ("probs", "scores", "entropy"):
                np.testing.assert_allclose(
                    getattr(stacked, name).data[row],
                    getattr(single, name).data,
                    rtol=0, atol=1e-12, err_msg=name,
                )
            assert batch.chosen_prob(stacked.probs).data[row] == (
                stacked.probs.data[row, step.action]
            )
    assert all(next(rows, None) is None for rows in steps.values())


@pytest.mark.parametrize("gnn_kind", ENCODERS)
def test_first_pass_ratio_is_one_across_chunks(mixed_batch, gnn_kind, row_budget):
    policy, trajectories = mixed_batch(gnn_kind)
    stats = PPOTrainer(policy, updates_per_batch=1).update(trajectories)
    assert stats.mean_ratio == 1.0
    assert stats.clip_fraction == 0.0
    assert stats.approx_kl == 0.0
    assert stats.first_pass_ratio == 1.0


def assert_update_matches_oracle(trainer, trajectories):
    """Two updates in a row, so the second one runs at θ ≠ θ′."""
    parameters = trainer.optimizer.parameters
    for _ in range(2):
        trainer.optimizer.zero_grad()
        expected = per_step_loss(trainer, trajectories)
        expected.backward()
        expected_grads = [p.grad.copy() for p in parameters]

        stats = trainer.update(trajectories)  # leaves its pass's gradients in place
        assert stats.loss == pytest.approx(float(expected.data), rel=0, abs=1e-9)
        assert stats.num_steps == sum(len(t.policy_steps()) for t in trajectories)
        for parameter, grad in zip(parameters, expected_grads):
            np.testing.assert_allclose(parameter.grad, grad, rtol=0, atol=1e-9)
            assert np.abs(grad).max() > 0.0


@pytest.mark.parametrize("gnn_kind", ENCODERS)
def test_loss_and_gradients_match_the_per_step_oracle(
    mixed_batch, gnn_kind, row_budget
):
    policy, trajectories = mixed_batch(gnn_kind)
    # No clipping, so the gradients left behind are the raw ones; a large
    # step, so the second round's ratios leave 1 (and some the clip range).
    trainer = PPOTrainer(
        policy, learning_rate=5e-2, updates_per_batch=1, max_grad_norm=None
    )
    assert_update_matches_oracle(trainer, trajectories)


@pytest.mark.parametrize("gnn_kind", ENCODERS)
def test_normalized_weights_match_the_per_step_oracle(
    mixed_batch, gnn_kind, row_budget
):
    policy, trajectories = mixed_batch(gnn_kind)
    trainer = PPOTrainer(
        policy, learning_rate=5e-2, updates_per_batch=1, max_grad_norm=None,
        normalize_advantages=True,
    )
    assert_update_matches_oracle(trainer, trajectories)
    pooled = np.concatenate([b.weight for b in stack_steps(trajectories, True)])
    assert abs(pooled.mean()) < 1e-12 and pooled.std() == pytest.approx(1.0)
