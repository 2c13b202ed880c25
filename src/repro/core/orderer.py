"""RL-QVO as a drop-in :class:`~repro.matching.ordering.base.Orderer`.

At query time the trained policy rolls through the ordering MDP once:
``O(|V(q)|)`` evaluations of cost ``O(|E(q)| + d²)`` each, which
Sec. III-G calls negligible next to enumeration.  That is a statement
about the paper's match caps: on the benchmark's 200-match yeast Q16 ops
ordering is ~1.2 ms of a ~3.5 ms traced op, twice Phase (3) (~0.6 ms)
and close to Phase (1) (~1.4 ms).  The policy is
consulted through ``PolicyNetwork.evaluate`` — bare arrays, no
``Tensor`` and no autograd graph.
Singleton action spaces skip the network entirely, and every other step
takes the argmax action (Sec. III-D); sampling from the policy is how
training explores (:func:`repro.rl.rollout.collect_trajectory`), never
how a query is ordered.
"""

from __future__ import annotations

import numpy as np

from repro.core.features import FeatureBuilder
from repro.core.policy import PolicyNetwork
from repro.errors import ModelError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateSets
from repro.matching.ordering.base import Orderer
from repro.nn.gnn import GraphContext
from repro.rl.env import OrderingEnv

__all__ = ["RLQVOOrderer"]


class RLQVOOrderer(Orderer):
    """Learned query-vertex orderer (the paper's contribution).

    Parameters
    ----------
    policy:
        A trained :class:`PolicyNetwork`.
    feature_builder:
        The builder bound to the data graph the policy was trained on.
    """

    name = "rlqvo"

    def __init__(self, policy: PolicyNetwork, feature_builder: FeatureBuilder):
        self.policy = policy
        self.feature_builder = feature_builder

    def order(
        self,
        query: Graph,
        data: Graph | None = None,
        candidates: CandidateSets | None = None,
        stats: GraphStats | None = None,
        rng: np.random.Generator | None = None,
    ) -> list[int]:
        if data is not None and data is not self.feature_builder.data:
            raise ModelError(
                "RLQVOOrderer was trained against a different data graph"
            )
        # Built per call: an orderer outlives the queries it serves, so
        # nothing here may be remembered under a query's address.
        ctx = GraphContext.from_graph(query)

        env = OrderingEnv(query)
        state = env.reset()
        static = self.feature_builder.static_features(query)
        # One buffer per call, rewritten at each consultation — per call,
        # not on ``self``: a Matcher's threads share one orderer.
        features = None
        while not env.done:
            actions = state.action_space
            if actions.size == 1:
                state = env.step(int(actions[0]))
                continue
            features = self.feature_builder.step_features(
                query, static, state.step, state.ordered_mask, out=features
            )
            p, _ = self.policy.evaluate(features, ctx, state.action_mask)
            state = env.step(int(np.argmax(p)))
        return env.order
