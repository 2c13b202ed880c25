"""Graph neural network layers used by RL-QVO and its ablation variants.

The paper's default encoder is a 2-layer GCN (Eq. 3); the ablation study
(Sec. IV-D) swaps in GAT, GraphSAGE, the higher-order GraphConv of Morris
et al. ("GraphNN") and the LEConv operator from ASAP.  All five are
implemented here over the dense :class:`GraphContext` of a query graph
(queries have ≤ a few dozen vertices, so dense message passing is exact
and cheap).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ModelError
from repro.graphs.graph import Graph
from repro.nn import init as nn_init
from repro.nn.functional import (
    concat,
    masked_softmax,
    masked_softmax_array,
    relu_array,
)
from repro.nn.layers import Linear, Module
from repro.nn.tensor import Tensor

__all__ = [
    "GraphContext",
    "GCNLayer",
    "SAGELayer",
    "GATLayer",
    "GraphConvLayer",
    "LEConvLayer",
    "GNN_LAYERS",
]


@dataclass(frozen=True)
class GraphContext:
    """Dense per-graph matrices shared by all GNN layer types.

    Every field is ``(n, n)`` for one graph or ``(S, n, n)`` for a stack
    of ``S`` graphs (:meth:`stack`); the layers only touch the last two
    axes, so one call encodes the whole stack.

    Attributes
    ----------
    norm_adj:
        ``D^-1/2 (A+I) D^-1/2`` — GCN propagation (Eq. 3).
    mean_adj:
        Row-normalized adjacency ``D^-1 A`` (zero rows for isolated
        vertices) — GraphSAGE mean aggregator.
    adj:
        Plain 0/1 adjacency — GraphConv / LEConv.
    attention_mask:
        Boolean ``A + I`` — GAT attends over neighbours and self.
    """

    norm_adj: np.ndarray
    mean_adj: np.ndarray
    adj: np.ndarray
    attention_mask: np.ndarray

    @staticmethod
    def from_graph(graph: Graph) -> "GraphContext":
        """Build the dense context for a (small) query graph."""
        n = graph.num_vertices
        adj = np.zeros((n, n))
        # One scatter of the CSR slots (each edge is stored both ways).
        adj[np.repeat(np.arange(n), graph.degrees), graph.indices] = 1.0
        degrees = adj.sum(axis=1)
        with np.errstate(divide="ignore"):
            inv_deg = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-12), 0.0)
        mean_adj = adj * inv_deg[:, None]
        norm_adj = graph.normalized_adjacency() if n > 0 else np.zeros((0, 0))
        attention_mask = (adj + np.eye(n)) > 0
        return GraphContext(
            norm_adj=norm_adj,
            mean_adj=mean_adj,
            adj=adj,
            attention_mask=attention_mask,
        )

    @staticmethod
    def stack(contexts: Sequence["GraphContext"]) -> "GraphContext":
        """The contexts of ``S`` same-sized graphs as ``(S, n, n)`` fields."""
        return GraphContext(
            *(
                np.stack([getattr(ctx, f.name) for ctx in contexts])
                for f in fields(GraphContext)
            )
        )


class GCNLayer(Module):
    """Graph convolution ``H' = σ(Â H W)`` (Kipf & Welling, Eq. 3)."""

    name = "gcn"

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator | None = None
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.linear = Linear(in_features, out_features, rng=rng)

    def forward(self, h: Tensor, ctx: GraphContext) -> Tensor:
        return (Tensor(ctx.norm_adj) @ self.linear(h)).relu()

    def evaluate(self, h: np.ndarray, ctx: GraphContext) -> np.ndarray:
        """:meth:`forward` on a bare array (no graph, the same bits)."""
        return relu_array(ctx.norm_adj @ self.linear.evaluate(h))


class SAGELayer(Module):
    """GraphSAGE with mean aggregation: ``H' = σ([H ‖ D^-1 A H] W)``."""

    name = "sage"

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator | None = None
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.linear = Linear(2 * in_features, out_features, rng=rng)

    def forward(self, h: Tensor, ctx: GraphContext) -> Tensor:
        aggregated = Tensor(ctx.mean_adj) @ h
        return self.linear(concat([h, aggregated], axis=-1)).relu()

    def evaluate(self, h: np.ndarray, ctx: GraphContext) -> np.ndarray:
        """:meth:`forward` on a bare array (no graph, the same bits)."""
        aggregated = ctx.mean_adj @ h
        return relu_array(
            self.linear.evaluate(np.concatenate([h, aggregated], axis=-1))
        )


class GATLayer(Module):
    """Single-head graph attention (Velickovic et al.).

    ``e_ij = LeakyReLU(a_src·Wh_i + a_dst·Wh_j)`` masked to ``A+I``,
    ``α = softmax_j(e_ij)``, ``H'_i = σ(Σ_j α_ij W h_j)``.
    """

    name = "gat"

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator | None = None
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.linear = Linear(in_features, out_features, bias=False, rng=rng)
        self.attn_src = self.register_parameter(
            "attn_src", Tensor(nn_init.xavier_uniform(out_features, 1, rng))
        )
        self.attn_dst = self.register_parameter(
            "attn_dst", Tensor(nn_init.xavier_uniform(out_features, 1, rng))
        )

    def forward(self, h: Tensor, ctx: GraphContext) -> Tensor:
        wh = self.linear(h)  # (..., n, d)
        src = wh @ self.attn_src  # (..., n, 1)
        dst = wh @ self.attn_dst  # (..., n, 1)
        logits = (src + dst.transpose()).leaky_relu(0.2)  # (..., n, n)
        alpha = masked_softmax(logits, ctx.attention_mask, axis=-1)
        return (alpha @ wh).relu()

    def evaluate(self, h: np.ndarray, ctx: GraphContext) -> np.ndarray:
        """:meth:`forward` on a bare array (no graph, the same bits)."""
        wh = self.linear.evaluate(h)
        src = wh @ self.attn_src.data
        dst = wh @ self.attn_dst.data
        logits = src + dst.swapaxes(-1, -2)
        logits = logits * np.where(logits > 0, 1.0, 0.2)  # Tensor.leaky_relu
        alpha = masked_softmax_array(logits, ctx.attention_mask, axis=-1)
        return relu_array(alpha @ wh)


class GraphConvLayer(Module):
    """Higher-order GraphConv of Morris et al. ("GraphNN" in the ablation).

    ``H' = σ(H W1 + A H W2)`` — separate root and neighbour transforms.
    """

    name = "graphnn"

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator | None = None
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.root = Linear(in_features, out_features, rng=rng)
        self.neighbor = Linear(in_features, out_features, bias=False, rng=rng)

    def forward(self, h: Tensor, ctx: GraphContext) -> Tensor:
        return (self.root(h) + Tensor(ctx.adj) @ self.neighbor(h)).relu()

    def evaluate(self, h: np.ndarray, ctx: GraphContext) -> np.ndarray:
        """:meth:`forward` on a bare array (no graph, the same bits)."""
        return relu_array(
            self.root.evaluate(h) + ctx.adj @ self.neighbor.evaluate(h)
        )


class LEConvLayer(Module):
    """Local-extremum convolution from ASAP (Ranjan et al.).

    ``H'_i = σ(W1 h_i + Σ_{j∈N(i)} (W2 h_i − W3 h_j))`` — scores vertices
    by contrast with their neighbourhood, the operator ASAP's pooling uses.
    """

    name = "asap"

    def __init__(
        self, in_features: int, out_features: int, rng: np.random.Generator | None = None
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.w1 = Linear(in_features, out_features, rng=rng)
        self.w2 = Linear(in_features, out_features, bias=False, rng=rng)
        self.w3 = Linear(in_features, out_features, bias=False, rng=rng)

    def forward(self, h: Tensor, ctx: GraphContext) -> Tensor:
        degrees = Tensor(ctx.adj.sum(axis=-1, keepdims=True))
        local = self.w2(h) * degrees - Tensor(ctx.adj) @ self.w3(h)
        return (self.w1(h) + local).relu()

    def evaluate(self, h: np.ndarray, ctx: GraphContext) -> np.ndarray:
        """:meth:`forward` on a bare array (no graph, the same bits)."""
        degrees = ctx.adj.sum(axis=-1, keepdims=True)
        # ``a - b`` on Tensors is ``a + (-b)``.
        local = self.w2.evaluate(h) * degrees + (-(ctx.adj @ self.w3.evaluate(h)))
        return relu_array(self.w1.evaluate(h) + local)


GNN_LAYERS: dict[str, type[Module]] = {
    cls.name: cls
    for cls in (GCNLayer, SAGELayer, GATLayer, GraphConvLayer, LEConvLayer)
}


def make_gnn_layer(
    kind: str, in_features: int, out_features: int, rng: np.random.Generator
) -> Module:
    """Factory for GNN layers by ablation name ('gcn', 'gat', ...)."""
    if kind not in GNN_LAYERS:
        raise ModelError(f"unknown GNN layer kind {kind!r}; options: {sorted(GNN_LAYERS)}")
    return GNN_LAYERS[kind](in_features, out_features, rng=rng)


__all__.append("make_gnn_layer")
