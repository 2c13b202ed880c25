"""Tests for GNN layers and the dense graph context."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.graphs import Graph, erdos_renyi
from repro.nn import (
    GATLayer,
    GCNLayer,
    GNN_LAYERS,
    GraphContext,
    GraphConvLayer,
    LEConvLayer,
    SAGELayer,
    Tensor,
    make_gnn_layer,
)
from repro.nn.gnn import CONTEXT_FIELDS

ALL_LAYERS = [GCNLayer, SAGELayer, GATLayer, GraphConvLayer, LEConvLayer]


@pytest.fixture(scope="module")
def graph() -> Graph:
    return erdos_renyi(12, 24, 3, seed=9)


@pytest.fixture(scope="module")
def ctx(graph) -> GraphContext:
    return GraphContext.from_graph(graph)


class TestGraphContext:
    def test_matrix_shapes(self, graph, ctx):
        n = graph.num_vertices
        for mat in (ctx.norm_adj, ctx.mean_adj, ctx.adj):
            assert mat.shape == (n, n)
        assert ctx.attention_mask.shape == (n, n)

    def test_adjacency_symmetric_and_binary(self, graph, ctx):
        assert np.array_equal(ctx.adj, ctx.adj.T)
        assert set(np.unique(ctx.adj)) <= {0.0, 1.0}
        assert ctx.adj.sum() == 2 * graph.num_edges

    def test_adjacency_is_the_edge_list(self, graph, ctx):
        expected = np.zeros_like(ctx.adj)
        for u, v in graph.edges():
            expected[u, v] = expected[v, u] = 1.0
        assert np.array_equal(ctx.adj, expected)

    def test_mean_adj_rows_normalized(self, graph, ctx):
        sums = ctx.mean_adj.sum(axis=1)
        for v in graph.vertices():
            expected = 1.0 if graph.degree(v) > 0 else 0.0
            assert sums[v] == pytest.approx(expected)

    def test_attention_mask_includes_self(self, graph, ctx):
        assert ctx.attention_mask.diagonal().all()

    @pytest.mark.parametrize("name", CONTEXT_FIELDS)
    def test_one_field_is_the_full_contexts_field(self, graph, ctx, name):
        alone = GraphContext.from_graph(graph, [name])
        for other in CONTEXT_FIELDS:
            got = getattr(alone, other)
            if other == name:
                assert np.array_equal(got, getattr(ctx, name))
                assert got.dtype == getattr(ctx, name).dtype
            else:
                assert got is None

    def test_isolated_vertex_handled(self):
        g = Graph([0, 0, 0], [(0, 1)])
        ctx = GraphContext.from_graph(g)
        assert ctx.mean_adj[2].sum() == 0.0
        assert ctx.norm_adj[2, 2] == pytest.approx(1.0)  # self loop only


class TestLayers:
    @pytest.mark.parametrize("layer_cls", ALL_LAYERS)
    def test_forward_shape(self, layer_cls, graph, ctx, rng):
        layer = layer_cls(5, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(graph.num_vertices, 5))), ctx)
        assert out.shape == (graph.num_vertices, 7)
        assert (out.data >= 0).all()  # all layers end in ReLU

    @pytest.mark.parametrize("layer_cls", ALL_LAYERS)
    def test_gradients_reach_all_parameters(self, layer_cls, graph, ctx, rng):
        layer = layer_cls(5, 4, rng=rng)
        out = layer(Tensor(rng.normal(size=(graph.num_vertices, 5))), ctx)
        out.sum().backward()
        for p in layer.parameters():
            assert p.grad is not None

    def test_gcn_matches_manual_formula(self, graph, ctx, rng):
        layer = GCNLayer(3, 2, rng=rng)
        h = rng.normal(size=(graph.num_vertices, 3))
        out = layer(Tensor(h), ctx).data
        manual = ctx.norm_adj @ (h @ layer.linear.weight.data + layer.linear.bias.data)
        assert np.allclose(out, np.maximum(manual, 0.0))

    def test_gat_attention_rows_normalized_over_neighbourhood(self, graph, ctx, rng):
        # Indirect check: uniform features => output finite and bounded.
        layer = GATLayer(3, 3, rng=rng)
        out = layer(Tensor(np.ones((graph.num_vertices, 3))), ctx)
        assert np.isfinite(out.data).all()

    def test_message_passing_uses_structure(self, rng):
        # Two isomorphic-feature vertices with different neighbourhoods must
        # get different GCN embeddings.
        g = Graph([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (1, 3)])
        ctx = GraphContext.from_graph(g)
        layer = GCNLayer(2, 4, rng=rng)
        h = np.ones((4, 2))
        out = layer(Tensor(h), ctx).data
        assert not np.allclose(out[0], out[1])


class TestFactory:
    def test_registry_complete(self):
        assert set(GNN_LAYERS) == {"gcn", "sage", "gat", "graphnn", "asap"}

    def test_make_by_name(self, rng):
        layer = make_gnn_layer("gat", 3, 3, rng)
        assert isinstance(layer, GATLayer)

    def test_unknown_kind_rejected(self, rng):
        with pytest.raises(ModelError):
            make_gnn_layer("transformer", 3, 3, rng)
