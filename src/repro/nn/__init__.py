"""Minimal numpy autograd + GNN substrate (PyTorch replacement)."""

from repro.nn.functional import concat, entropy, masked_softmax
from repro.nn.gnn import (
    GNN_LAYERS,
    GATLayer,
    GCNLayer,
    GraphConvLayer,
    GraphContext,
    LEConvLayer,
    SAGELayer,
    make_gnn_layer,
)
from repro.nn.layers import Linear, Module
from repro.nn.optim import Adam
from repro.nn.serialization import load_module, model_nbytes, save_module
from repro.nn.tensor import Tensor

__all__ = [
    "Adam",
    "GATLayer",
    "GCNLayer",
    "GNN_LAYERS",
    "GraphContext",
    "GraphConvLayer",
    "LEConvLayer",
    "Linear",
    "Module",
    "SAGELayer",
    "Tensor",
    "concat",
    "entropy",
    "load_module",
    "make_gnn_layer",
    "masked_softmax",
    "model_nbytes",
    "save_module",
]
