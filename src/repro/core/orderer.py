"""RL-QVO as a drop-in :class:`~repro.matching.ordering.base.Orderer`.

At query time the trained policy rolls through the ordering MDP once:
``O(|V(q)|)`` evaluations of cost ``O(|E(q)| + d²)`` each, which
Sec. III-G calls negligible next to enumeration.  That is a statement
about the paper's match caps: on the benchmark's 200-match yeast Q16 ops
ordering is ~0.7 ms of a ~2.3 ms traced op, twice Phase (3) (~0.3 ms)
and over half of Phase (1) (~1.2 ms), so a decision pays for one
scoring and nothing else.  Singleton action spaces skip the network
entirely; every other step takes the argmax action (Sec. III-D), read
from the raw scores of the action rows (:meth:`PolicyNetwork.scores`) —
no softmax, no ``Tensor`` and no autograd graph.  Sampling from the
policy is how training explores
(:func:`repro.rl.rollout.collect_trajectory`), never how a query is
ordered.

**The pick is the softmax's argmax.**  The policy's distribution is a
softmax of the scores (Eq. 4), strictly increasing in a score, so its
argmax is the top score's vertex — unless two scores are so close that
the rounding of the softmax (or of a GEMM over fewer rows) can merge or
swap them.  A decision whose runner-up lies within
:data:`TIE_TOLERANCE` of the top, or whose top is not finite, is
decided the exact way: ``argmax`` of :meth:`PolicyNetwork.evaluate`'s
probabilities, first index on ties.  A tie broken another way would be
another order and another ``#enum``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.features import FeatureBuilder
from repro.core.policy import PolicyNetwork
from repro.errors import ModelError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateSets
from repro.matching.ordering.base import Orderer
from repro.nn.gnn import GraphContext
from repro.rl.env import place

__all__ = ["RLQVOOrderer", "TIE_TOLERANCE"]

#: Relative gap ``(top − runner-up) / (1 + |top|)`` below which a greedy
#: decision is handed to the softmax (see the module docstring).  Scores
#: are O(1) doubles, so 1e-9 leaves millions of ulps of room for
#: rounding while a trained policy's decisions fall inside it rarely (16
#: of 3,062 on the benchmark's 212 yeast Q16 queries).  A constant of the
#: implementation, not a setting.
TIE_TOLERANCE = 1e-9


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
    ) -> list[int]:
        if data is not None and data is not self.feature_builder.data:
            raise ModelError(
                "RLQVOOrderer was trained against a different data graph"
            )
        # Everything below is built per call: an orderer outlives the
        # queries it serves (nothing may be remembered under a query's
        # address), and a Matcher's threads share one orderer.
        n = query.num_vertices
        ctx = self.policy.context(query)
        static = self.feature_builder.static_features(query)
        ordered = np.zeros(n, dtype=bool)
        frontier = np.zeros(n, dtype=bool)
        action_mask = np.ones(n, dtype=bool)
        features = None  # one buffer, rewritten at each consultation
        order: list[int] = []
        for step in range(n):
            rows = np.flatnonzero(action_mask)
            if rows.size == 1:
                action = int(rows[0])
            else:
                features = self.feature_builder.step_features(
                    query, static, step, ordered, out=features
                )
                action = self._pick(features, ctx, action_mask, rows)
            order.append(action)
            place(query, action, ordered, frontier, action_mask)
        return order

    def _pick(
        self,
        features: np.ndarray,
        ctx: GraphContext,
        action_mask: np.ndarray,
        rows: np.ndarray,
    ) -> int:
        """The argmax of the selection distribution over ``rows``."""
        scores = self.policy.scores(features, ctx, rows)
        best = int(scores.argmax())  # the first NaN, if there is one
        top = float(scores[best])
        if math.isfinite(top):
            floor = top - TIE_TOLERANCE * (1.0 + abs(top))
            if np.count_nonzero(scores >= floor) == 1:
                return int(rows[best])
        probs, _ = self.policy.evaluate(features, ctx, action_mask)
        return int(np.argmax(probs))
