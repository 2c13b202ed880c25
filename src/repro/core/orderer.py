"""RL-QVO as a drop-in :class:`~repro.matching.ordering.base.Orderer`.

At query time the trained policy rolls through the ordering MDP once:
``O(|V(q)|)`` evaluations of cost ``O(|E(q)| + d²)`` each, which
Sec. III-G calls negligible next to enumeration.  That is a statement
about the paper's match caps: on the benchmark's 200-match yeast Q16 ops
ordering is ~1.2 ms of a ~3.5 ms traced op, twice Phase (3) (~0.6 ms)
and close to Phase (1) (~1.4 ms).  The policy is
consulted through ``PolicyNetwork.evaluate`` — bare arrays, no
``Tensor`` and no autograd graph, evaluation mode by definition.
Singleton action spaces skip the network entirely, and by default the
argmax action is taken (the exploratory sampling of Sec. III-C is for
training; pass ``sample=True`` to keep it).
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
        A trained :class:`PolicyNetwork` (evaluation mode is forced).
    feature_builder:
        The builder bound to the data graph the policy was trained on.
    sample:
        Sample from the masked distribution instead of taking the argmax.
    """

    name = "rlqvo"

    def __init__(
        self,
        policy: PolicyNetwork,
        feature_builder: FeatureBuilder,
        sample: bool = False,
        seed: int | None = None,
    ):
        self.policy = policy
        self.feature_builder = feature_builder
        self.sample = sample
        self._rng = np.random.default_rng(seed)
        self.policy.eval()

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
        rng = rng if rng is not None else self._rng
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
            if self.sample:
                action = int(rng.choice(p.size, p=p / p.sum()))
            else:
                action = int(np.argmax(p))
            state = env.step(action)
        return env.order
