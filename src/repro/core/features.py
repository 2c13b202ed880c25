"""Initial feature representation of query vertices (Sec. III-C).

Seven dimensions per query vertex ``u``:

1. ``degree(u)`` — degree,
2. ``label(u)`` — raw label id,
3. ``id(u)`` — vertex id (queries are small, no scaling needed),
4. ``|{v ∈ G : d(u) < d(v)}| / |V(G)|`` — degree-rank vs data graph,
5. ``|{v ∈ G : L(u) = L(v)}| / |V(G)|`` — label frequency in G,
6. ``|V(q)| − t + 1`` — number of unordered vertices (time signal),
7. ``1(u ∈ φ_{t-1})`` — ordered indicator.

The paper divides dims 1, 4 and 5 by scaling factors α_degree, α_d and
α_l and sets all three to 1 (Sec. IV-A); so does this module.
Dims 1–5 are static per (query, data) pair; 6–7 are updated per MDP step.
The RL-QVO-RIF ablation replaces 1–5 with random values fixed per query.

Nothing here is cached: a builder lives as long as a serving process
and sees queries that are freed as soon as they are answered, so the
static columns are a function of the query's content and recomputed per
call, a column at a time (``tests/core/test_features.py`` keeps the
per-vertex loop as the oracle: the columns are the same doubles).
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ModelError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.core.config import RLQVOConfig

__all__ = ["FEATURE_DIM", "FeatureBuilder"]

#: Width of the per-vertex feature vector ``h_u``.
FEATURE_DIM = 7


class FeatureBuilder:
    """Builds static and per-step feature matrices for a data graph."""

    def __init__(self, data: Graph, config: RLQVOConfig, stats: GraphStats | None = None):
        self.data = data
        self.config = config
        self.stats = stats if stats is not None else GraphStats(data)
        if self.stats.graph is not data:
            raise ModelError("GraphStats does not belong to the given data graph")

    def static_features(self, query: Graph) -> np.ndarray:
        """The five static feature columns for every vertex of ``query``."""
        n = query.num_vertices
        cfg = self.config
        out = np.zeros((n, 5))
        if cfg.feature_mode == "random":
            # RL-QVO-RIF: random input features, fixed per query — the
            # draw is seeded by the query's content (labels + CSR), so
            # equal queries get equal features in any call order and in
            # any process (``hash(query)`` is salted per interpreter).
            digest = hashlib.blake2b(
                b"".join(a.tobytes() for a in (query.labels, *query.csr)),
                digest_size=8,
            ).digest()
            seed = [cfg.seed + 7919, int.from_bytes(digest, "little")]
            out = np.random.default_rng(seed).random((n, 5))
        else:
            nv = max(self.data.num_vertices, 1)
            ranks = self.stats.sorted_degrees
            counts = self.stats.label_counts
            out[:, 0] = query.degrees
            out[:, 1] = query.labels
            out[:, 2] = np.arange(n)
            out[:, 3] = (
                ranks.size - np.searchsorted(ranks, query.degrees, side="right")
            ) / nv
            out[:, 4] = np.array(
                [counts.get(lab, 0) for lab in query.labels.tolist()]
            ) / nv
        out.setflags(write=False)
        return out

    def step_features(
        self,
        query: Graph,
        static: np.ndarray,
        step: int,
        ordered_mask: np.ndarray,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Full ``(n, 7)`` feature matrix ``H_t`` at MDP step ``step``.

        ``step`` is the number of vertices already ordered (``t-1`` vertices
        placed before the ``t``-th selection, with t = step + 1).  ``out``
        is an earlier result for the same ``query`` and ``static`` to
        overwrite: only the two per-step columns are written.
        """
        n = query.num_vertices
        if out is None:
            if static.shape != (n, 5):
                raise ModelError(f"static features shape {static.shape} != ({n}, 5)")
            out = np.empty((n, FEATURE_DIM))
            out[:, :5] = static
        out[:, 5] = n - step  # |V(q)| - t + 1 with t = step + 1
        out[:, 6] = ordered_mask
        return out
