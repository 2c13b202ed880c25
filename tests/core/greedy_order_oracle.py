"""The greedy ordering loop ``RLQVOOrderer`` replaced — a test oracle.

Every step recomputes the action space from scratch
(``tests/action_space_oracle.py``, not ``rl.env.place``), and every
decision takes ``argmax(probs)`` of :meth:`PolicyNetwork.evaluate`: the
masked softmax over every vertex's score, first index on ties.  The production orderer
picks from the raw scores of the action rows and hands only near-ties to
this softmax; ``tests/core/test_orderer.py`` holds the two to equal
orders.
"""

from __future__ import annotations

import numpy as np
from action_space_oracle import masks_from_scratch

from repro.nn.gnn import GraphContext


def greedy_order(policy, feature_builder, query, decisions=None) -> list[int]:
    """``query``'s greedy order under ``policy`` (duck-typed: only
    ``evaluate(features, ctx, mask) -> (probs, scores)`` is called).

    ``decisions``, when a list, receives the action rows' scores of
    every step the policy was consulted on.
    """
    ctx = GraphContext.from_graph(query)
    static = feature_builder.static_features(query)
    features = None
    order: list[int] = []
    while len(order) < query.num_vertices:
        ordered, action_mask = masks_from_scratch(query, order)
        actions = np.flatnonzero(action_mask)
        if actions.size == 1:
            order.append(int(actions[0]))
            continue
        features = feature_builder.step_features(
            query, static, len(order), ordered, out=features
        )
        p, scores = policy.evaluate(features, ctx, action_mask)
        if decisions is not None:
            decisions.append(scores[actions])
        order.append(int(np.argmax(p)))
    return order
