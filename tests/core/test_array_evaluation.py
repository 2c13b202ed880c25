"""``PolicyNetwork.evaluate`` against ``forward``: the same bits.

The orderer and the rollout consult the policy through ``evaluate`` —
bare arrays, no autograd graph — and PPO's update scores the same
steps through ``forward``.  PPO's first-pass ratio is 1 only if the two
agree exactly (a last-bit difference in the ratio moved a policy seed's
held-out result from 0.82 to 1.82, ROADMAP D), so the comparison is
``np.array_equal``, never ``allclose``: every encoder at every depth
Fig. 10 sweeps, on every decision point of the fixture queries.
"""

import numpy as np
import pytest

from repro.core import FeatureBuilder, PolicyNetwork, RLQVOConfig
from repro.errors import ModelError
from repro.nn.functional import entropy_array
from repro.nn.gnn import GraphContext
from repro.rl import collect_trajectory

ENCODERS = ["gcn", "gat", "sage", "graphnn", "asap", "mlp"]


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("gnn_kind", ENCODERS)
def test_evaluate_equals_forward_bitwise(
    data_graph, data_stats, queries, rng, gnn_kind, num_layers
):
    config = RLQVOConfig(
        gnn_kind=gnn_kind, num_gnn_layers=num_layers, hidden_dim=16, seed=2
    )
    policy = PolicyNetwork(config)
    builder = FeatureBuilder(data_graph, config, data_stats)
    decisions = 0
    for query in queries:
        trajectory = collect_trajectory(policy, query, builder, rng)
        for _, step in trajectory.policy_steps():
            probs, scores = policy.evaluate(
                step.features, trajectory.ctx, step.action_mask
            )
            out = policy.forward(step.features, trajectory.ctx, step.action_mask)
            assert np.array_equal(probs, out.probs.data)
            assert np.array_equal(scores, out.scores.data)
            assert np.array_equal(entropy_array(probs), out.entropy.data)
            # What the rollout recorded from the same arrays.
            assert step.old_prob == float(out.probs.data[step.action])
            assert step.entropy == float(out.entropy.data)
            assert step.valid == out.is_valid
            decisions += 1
    assert decisions >= 2 * len(queries)


def test_evaluate_takes_a_stack_of_decision_points(data_graph, data_stats, queries):
    # Every op works on the last axes, as in forward.
    config = RLQVOConfig(gnn_kind="gat", hidden_dim=8, seed=0)
    policy = PolicyNetwork(config)
    builder = FeatureBuilder(data_graph, config, data_stats)
    contexts = [GraphContext.from_graph(query) for query in queries[:3]]
    masks = np.ones((3, 6), dtype=bool)
    masks[1, :2] = False
    features = np.stack([
        builder.step_features(query, builder.static_features(query), 0, ~mask)
        for query, mask in zip(queries, masks)
    ])
    probs, scores = policy.evaluate(features, GraphContext.stack(contexts), masks)
    out = policy.forward(features, GraphContext.stack(contexts), masks)
    assert probs.shape == scores.shape == (3, 6)
    assert np.array_equal(probs, out.probs.data)
    assert np.array_equal(scores, out.scores.data)


class TestErrorsStay:
    @pytest.fixture()
    def policy_and_ctx(self, queries):
        policy = PolicyNetwork(RLQVOConfig(hidden_dim=8))
        return policy, GraphContext.from_graph(queries[0])

    def test_wrong_feature_width(self, policy_and_ctx):
        policy, ctx = policy_and_ctx
        with pytest.raises(ModelError, match="feature width"):
            policy.evaluate(np.zeros((6, 5)), ctx, np.ones(6, dtype=bool))

    def test_empty_action_space(self, policy_and_ctx):
        policy, ctx = policy_and_ctx
        with pytest.raises(ModelError, match="empty action space"):
            policy.evaluate(np.zeros((6, 7)), ctx, np.zeros(6, dtype=bool))
