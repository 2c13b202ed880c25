"""Property-based tests (hypothesis) for the graph substrate."""

import networkx as nx
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import Graph, erdos_renyi, extract_query
from repro.graphs.io import dumps_graph, loads_graph
from repro.graphs.validation import check_graph


@st.composite
def random_graphs(draw, max_vertices: int = 24):
    """Random labeled graphs as (labels, edge list) pairs."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    labels = draw(
        st.lists(st.integers(0, 4), min_size=n, max_size=n)
    )
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=60) if possible else st.just([]))
    return Graph(labels, edges)


@given(random_graphs())
def test_invariants_hold_for_arbitrary_graphs(g: Graph):
    check_graph(g)
    assert g.num_edges == len(g.edges())
    assert int(g.degrees.sum()) == 2 * g.num_edges
    assert sum(g.label_frequency(lab) for lab in g.distinct_labels()) == g.num_vertices


@given(random_graphs())
def test_io_roundtrip_is_identity(g: Graph):
    assert loads_graph(dumps_graph(g)) == g


@given(random_graphs())
def test_connectivity_matches_networkx(g: Graph):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.num_vertices))
    nxg.add_edges_from(g.edges())
    expected = g.num_vertices <= 1 or nx.is_connected(nxg)
    assert g.is_connected() == expected


@given(random_graphs())
def test_normalized_adjacency_spectrum_bounded(g: Graph):
    # Eigenvalues of D^-1/2 (A+I) D^-1/2 lie in [-1, 1].
    a = g.normalized_adjacency()
    if a.size:
        eigenvalues = np.linalg.eigvalsh(a)
        assert eigenvalues.min() >= -1.0 - 1e-9
        assert eigenvalues.max() <= 1.0 + 1e-9


@given(st.integers(0, 10_000), st.integers(2, 10))
def test_extracted_queries_are_connected_induced_subgraphs(seed, size):
    data = erdos_renyi(80, 200, 3, seed=11)
    rng = np.random.default_rng(seed)
    q = extract_query(data, size, rng)
    assert q.num_vertices == size
    assert q.is_connected()
    # Query edge count can never exceed the densest induced subgraph bound.
    assert q.num_edges <= size * (size - 1) // 2
