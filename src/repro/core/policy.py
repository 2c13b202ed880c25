"""RL-QVO policy network (Sec. III-D, Eq. 3–4).

Architecture: ``L`` GNN layers (GCN by default) embed the query vertices
from the 7-dim heuristic features, then a two-layer MLP scores each
vertex; scores outside the action space are masked and a softmax yields
the selection distribution:

``P_t = Softmax(mask_{u∈AS(t)}(W2 · σ(W1 h_u)))``            (Eq. 4)

The ``"mlp"`` encoder variant (no message passing) realises the
RL-QVO-NN ablation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RLQVOConfig
from repro.core.features import FEATURE_DIM
from repro.errors import ModelError
from repro.graphs.graph import Graph
from repro.nn.functional import (
    entropy,
    masked_softmax,
    masked_softmax_array,
    relu_array,
)
from repro.nn.gnn import GNN_LAYERS, GraphContext, make_gnn_layer
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor

__all__ = ["PolicyOutput", "PolicyNetwork"]


@dataclass
class PolicyOutput:
    """Forward-pass results the trainer and orderer consume.

    Attributes
    ----------
    probs:
        Masked, normalized selection probabilities over all query
        vertices (zeros outside the action space).
    scores:
        Raw (unmasked) MLP scores — used for the validity reward: the
        prediction is *valid* when the unmasked argmax is inside the
        action space.
    entropy:
        Shannon entropy of ``probs`` (the exploration reward ``r_h,t``).
    """

    probs: Tensor
    scores: Tensor
    entropy: Tensor

    @property
    def is_valid(self) -> bool:
        """Whether the unmasked argmax lands inside the action space
        (of a single decision point: the rollout reads it per step)."""
        argmax = int(np.argmax(self.scores.data))
        return bool(self.probs.data[argmax] > 0.0)


class PolicyNetwork(Module):
    """GNN encoder + MLP scoring head with action-space masking."""

    def __init__(self, config: RLQVOConfig | None = None):
        super().__init__()
        self.config = config if config is not None else RLQVOConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        hidden = cfg.hidden_dim

        if cfg.gnn_kind != "mlp" and cfg.gnn_kind not in GNN_LAYERS:
            raise ModelError(
                f"unknown gnn_kind {cfg.gnn_kind!r}; "
                f"options: {sorted(GNN_LAYERS)} or 'mlp'"
            )

        self._encoder_layers: list[Module] = []
        in_dim = FEATURE_DIM
        for i in range(cfg.num_gnn_layers):
            if cfg.gnn_kind == "mlp":
                layer: Module = Linear(in_dim, hidden, rng=rng)
            else:
                layer = make_gnn_layer(cfg.gnn_kind, in_dim, hidden, rng)
            self._encoder_layers.append(layer)
            self._modules[f"encoder{i}"] = layer
            in_dim = hidden
        self._context_fields = frozenset(
            layer.reads
            for layer in self._encoder_layers
            if not isinstance(layer, Linear)
        )

        self.head1 = Linear(hidden, hidden, rng=rng)
        self.head2 = Linear(hidden, 1, rng=rng)

    def encode(self, features: np.ndarray, ctx: GraphContext) -> Tensor:
        """Run the GNN encoder stack on the feature matrix."""
        h = Tensor(features)
        for layer in self._encoder_layers:
            if isinstance(layer, Linear):
                h = layer(h).relu()  # RL-QVO-NN: plain MLP, no propagation
            else:
                h = layer(h, ctx)
        return h

    def forward(
        self, features: np.ndarray, ctx: GraphContext, action_mask: np.ndarray
    ) -> PolicyOutput:
        """Score vertices and produce the masked selection distribution.

        One decision point — ``(n, 7)`` features, an ``(n, n)`` context,
        an ``(n,)`` mask — or ``S`` of them stacked along a leading axis
        (``(S, n, 7)``, ``(S, n, n)``, ``(S, n)``): every op works on the
        last axes, so ``probs`` / ``scores`` come back shaped like the
        mask and ``entropy`` with one value per decision point.
        """
        action_mask = np.asarray(action_mask, dtype=bool)
        if features.shape[-1] != FEATURE_DIM:
            raise ModelError(
                f"feature width {features.shape[-1]} != FEATURE_DIM {FEATURE_DIM}"
            )
        if not action_mask.any(axis=-1).all():
            raise ModelError("forward() with empty action space")
        h = self.encode(features, ctx)
        scores = self.head2(self.head1(h).relu()).reshape(action_mask.shape)
        probs = masked_softmax(scores, action_mask)
        return PolicyOutput(probs=probs, scores=scores, entropy=entropy(probs))

    def evaluate(
        self, features: np.ndarray, ctx: GraphContext, action_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(probs, scores)`` of :meth:`forward` as bare arrays.

        For every caller that needs no gradient — ordering a query,
        sampling a rollout.  No ``Tensor`` is built; each layer's
        ``evaluate`` makes its ``forward``'s numpy calls, so the arrays
        equal ``forward``'s ``.data`` bit for bit.
        """
        action_mask = np.asarray(action_mask, dtype=bool)
        if features.shape[-1] != FEATURE_DIM:
            raise ModelError(
                f"feature width {features.shape[-1]} != FEATURE_DIM {FEATURE_DIM}"
            )
        if not action_mask.any(axis=-1).all():
            raise ModelError("evaluate() with empty action space")
        scores = self._head(self._encode_array(features, ctx)).reshape(
            action_mask.shape
        )
        return masked_softmax_array(scores, action_mask), scores

    def scores(
        self, features: np.ndarray, ctx: GraphContext, rows: np.ndarray
    ) -> np.ndarray:
        """Raw scores of the vertices ``rows`` of one decision point.

        The encoder runs on every vertex (message passing reads them
        all), the scoring head on ``rows`` only, and no softmax is taken:
        a greedy pick needs the top score, not a distribution
        (:class:`repro.core.orderer.RLQVOOrderer`).  The values are
        ``evaluate``'s scores up to the rounding of a GEMM over fewer
        rows; training never reads them.
        """
        return self._head(self._encode_array(features, ctx)[rows]).reshape(-1)

    def _encode_array(self, features: np.ndarray, ctx: GraphContext) -> np.ndarray:
        """:meth:`encode` on bare arrays."""
        h = np.asarray(features, dtype=np.float64)
        for layer in self._encoder_layers:
            if isinstance(layer, Linear):
                h = layer.evaluate(h)
                relu_array(h, out=h)
            else:
                h = layer.evaluate(h, ctx)
        return h

    def _head(self, h: np.ndarray) -> np.ndarray:
        """``W2 · σ(W1 h)`` on bare arrays, one score per row of ``h``."""
        hidden = self.head1.evaluate(h)
        return self.head2.evaluate(relu_array(hidden, out=hidden))

    def context(self, graph: Graph) -> GraphContext:
        """``graph``'s :class:`GraphContext` with only the fields this
        encoder reads (none for the ``"mlp"`` encoder)."""
        return GraphContext.from_graph(graph, self._context_fields)

    def clone(self) -> "PolicyNetwork":
        """Deep copy (used for the frozen PPO sampling policy θ')."""
        twin = PolicyNetwork(self.config)
        twin.load_state_dict(self.state_dict())
        return twin
