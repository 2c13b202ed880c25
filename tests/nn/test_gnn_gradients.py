"""Numerical gradient checks for every GNN layer type.

The shape/flow tests in ``test_gnn.py`` prove gradients exist; these
prove they are *correct*, by central finite differences through the full
layer forward pass on a small graph.
"""

import numpy as np
import pytest

from repro.graphs import erdos_renyi
from repro.nn import (
    GATLayer,
    GCNLayer,
    GraphContext,
    GraphConvLayer,
    LEConvLayer,
    SAGELayer,
    Tensor,
)

ALL_LAYERS = [GCNLayer, SAGELayer, GATLayer, GraphConvLayer, LEConvLayer]


@pytest.fixture(scope="module")
def graph_ctx():
    graph = erdos_renyi(7, 12, 2, seed=21)
    return GraphContext.from_graph(graph)


def check_parameter_gradients(layer, features, ctx):
    """Every parameter's analytic gradient of ``Σ out²`` against central
    finite differences through the full layer forward."""

    def loss_value() -> float:
        out = layer(Tensor(features), ctx)
        return float((out.data**2).sum())

    layer.zero_grad()
    out = layer(Tensor(features), ctx)
    (out * out).sum().backward()

    eps = 1e-6
    for name, param in layer.named_parameters():
        analytic = param.grad
        assert analytic is not None, name
        numeric = np.zeros_like(param.data)
        flat = param.data.reshape(-1)
        numeric_flat = numeric.reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            hi = loss_value()
            flat[i] = old - eps
            lo = loss_value()
            flat[i] = old
            numeric_flat[i] = (hi - lo) / (2 * eps)
        err = np.abs(analytic - numeric).max()
        assert err < 1e-4, f"{type(layer).name}.{name}: grad error {err:.2e}"


@pytest.mark.parametrize("layer_cls", ALL_LAYERS)
def test_parameter_gradients_match_finite_differences(layer_cls, graph_ctx):
    rng = np.random.default_rng(3)
    layer = layer_cls(4, 3, rng=np.random.default_rng(5))
    check_parameter_gradients(layer, rng.normal(size=(7, 4)), graph_ctx)


@pytest.mark.parametrize("layer_cls", ALL_LAYERS)
def test_stacked_graphs_parameter_gradients(layer_cls, graph_ctx):
    # A leading axis of three different 7-vertex graphs through one call:
    # the shared weights collect every graph's gradient.
    rng = np.random.default_rng(3)
    layer = layer_cls(4, 3, rng=np.random.default_rng(5))
    others = [
        GraphContext.from_graph(erdos_renyi(7, edges, 2, seed=edges))
        for edges in (8, 15)
    ]
    stacked = GraphContext.stack([graph_ctx, *others])
    assert stacked.attention_mask.shape == (3, 7, 7)
    check_parameter_gradients(layer, rng.normal(size=(3, 7, 4)), stacked)


@pytest.mark.parametrize("layer_cls", ALL_LAYERS)
def test_stacked_rows_equal_single_graph_calls(layer_cls, graph_ctx):
    rng = np.random.default_rng(4)
    layer = layer_cls(4, 3, rng=np.random.default_rng(5))
    other = GraphContext.from_graph(erdos_renyi(7, 9, 2, seed=2))
    features = rng.normal(size=(2, 7, 4))
    stacked = layer(Tensor(features), GraphContext.stack([graph_ctx, other]))
    for row, ctx in enumerate((graph_ctx, other)):
        single = layer(Tensor(features[row]), ctx)
        np.testing.assert_allclose(stacked.data[row], single.data, atol=1e-12)


@pytest.mark.parametrize("layer_cls", ALL_LAYERS)
def test_input_gradients_match_finite_differences(layer_cls, graph_ctx):
    rng = np.random.default_rng(9)
    layer = layer_cls(3, 2, rng=np.random.default_rng(11))
    base = rng.normal(size=(7, 3))

    def loss_from(data: np.ndarray):
        h = Tensor(data, requires_grad=True)
        out = layer(h, graph_ctx)
        return h, (out * out).sum()

    h, loss = loss_from(base.copy())
    loss.backward()
    analytic = h.grad.copy()

    eps = 1e-6
    numeric = np.zeros_like(base)
    for idx in np.ndindex(*base.shape):
        hi = base.copy()
        hi[idx] += eps
        lo = base.copy()
        lo[idx] -= eps
        _, fh = loss_from(hi)
        _, fl = loss_from(lo)
        numeric[idx] = (float(fh.data) - float(fl.data)) / (2 * eps)
    err = np.abs(analytic - numeric).max()
    assert err < 1e-4, f"{layer_cls.name}: input grad error {err:.2e}"
