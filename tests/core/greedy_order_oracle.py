"""The greedy ordering loop ``RLQVOOrderer`` replaced — a test oracle.

Every decision walks :class:`repro.rl.OrderingEnv` and takes
``argmax(probs)`` of :meth:`PolicyNetwork.evaluate`: the masked softmax
over every vertex's score, first index on ties.  The production orderer
picks from the raw scores of the action rows and hands only near-ties to
this softmax; ``tests/core/test_orderer.py`` holds the two to equal
orders.
"""

from __future__ import annotations

import numpy as np

from repro.nn.gnn import GraphContext
from repro.rl import OrderingEnv


def greedy_order(policy, feature_builder, query, decisions=None) -> list[int]:
    """``query``'s greedy order under ``policy`` (duck-typed: only
    ``evaluate(features, ctx, mask) -> (probs, scores)`` is called).

    ``decisions``, when a list, receives the action rows' scores of
    every step the policy was consulted on.
    """
    ctx = GraphContext.from_graph(query)
    env = OrderingEnv(query)
    state = env.reset()
    static = feature_builder.static_features(query)
    features = None
    while not env.done:
        actions = state.action_space
        if actions.size == 1:
            state = env.step(int(actions[0]))
            continue
        features = feature_builder.step_features(
            query, static, state.step, state.ordered_mask, out=features
        )
        p, scores = policy.evaluate(features, ctx, state.action_mask)
        if decisions is not None:
            decisions.append(scores[actions])
        state = env.step(int(np.argmax(p)))
    return env.order
