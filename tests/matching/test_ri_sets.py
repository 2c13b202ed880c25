"""``RIOrderer`` against the rescanning RI oracle (``tests/ri_oracle.py``).

The orderer keeps its ``untouched`` set per step instead of rescanning
neighbourhoods per candidate; the order must be the oracle's.
Disconnected queries (where the orderer falls back to unconnected
candidates) and ``n`` in ``{0, 1}`` are covered explicitly, each under
several vertex numberings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from ri_oracle import ri_order

from repro.datasets import load_dataset, query_workload
from repro.graphs import Graph
from repro.graphs.canonical import relabel_graph
from repro.matching.ordering.ri import RIOrderer


@st.composite
def queries(draw) -> Graph:
    """Small graphs of every shape: empty, single vertex, disconnected, dense."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph([0] * n, edges)


@st.composite
def unions(draw) -> Graph:
    """Two or three connected components side by side."""
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(draw(st.integers(2, 3))):
        size = draw(st.integers(1, 6))
        # A random tree keeps the component connected; extra edges vary it.
        edges += [(n + i, n + draw(st.integers(0, i - 1))) for i in range(1, size)]
        pairs = [(n + u, n + v) for u in range(size) for v in range(u + 1, size)]
        edges += draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
        n += size
    return Graph([0] * n, edges)


def same_orders(query: Graph) -> None:
    assert RIOrderer().order(query) == ri_order(query)


@settings(max_examples=300)
@given(queries())
def test_matches_the_oracle(query):
    same_orders(query)


@settings(max_examples=300)
@given(unions())
def test_disconnected_queries_match_the_oracle(query):
    same_orders(query)


# ``None`` keeps each shape's numbering; a seed renumbers its vertices,
# which moves the ties the lowest-id rule settles.
@pytest.mark.parametrize("numbering", [None, 0, 1, 2])
@pytest.mark.parametrize(
    "query",
    [
        Graph([], []),
        Graph([3], []),
        Graph([0, 0], []),
        Graph([0] * 5, [(0, 1), (2, 3)]),
        Graph([0] * 6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
    ],
    ids=["n0", "n1", "two-isolated", "two-edges-one-isolated", "two-triangles"],
)
def test_edge_shapes(query, numbering):
    if numbering is not None:
        permutation = np.random.default_rng(numbering).permutation(query.num_vertices)
        query = relabel_graph(query, permutation)
    same_orders(query)


@pytest.mark.parametrize("size", [8, 16])
def test_yeast_pool_queries(size):
    data = load_dataset("yeast")
    for query in query_workload("yeast", size, count=20, seed=0, data=data).all_queries:
        same_orders(query)
