"""Unit tests for the core Graph data structure."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidGraphError
from repro.graphs import Graph
from repro.graphs.graph import gather_neighbors


def triangle() -> Graph:
    return Graph([0, 1, 2], [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_basic_counts(self):
        g = Graph([0, 1, 0], [(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.num_labels == 2

    def test_duplicate_edges_are_merged(self):
        g = Graph([0, 0], [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError):
            Graph([0, 1], [(0, 0)])

    def test_edge_out_of_range_rejected(self):
        with pytest.raises(InvalidGraphError):
            Graph([0, 1], [(0, 2)])

    def test_negative_label_rejected(self):
        with pytest.raises(InvalidGraphError):
            Graph([0, -1], [(0, 1)])

    def test_empty_graph(self):
        g = Graph([], [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.average_degree == 0.0
        assert g.max_degree == 0
        assert g.is_connected()

    def test_edgeless_graph(self):
        g = Graph([0, 1, 2], [])
        assert g.num_edges == 0
        assert not g.is_connected()


class TestAccessors:
    def test_labels_and_degrees(self):
        g = triangle()
        assert [g.label(v) for v in g.vertices()] == [0, 1, 2]
        assert [g.degree(v) for v in g.vertices()] == [2, 2, 2]
        assert g.max_degree == 2
        assert g.average_degree == pytest.approx(2.0)

    def test_neighbors_sorted_and_consistent(self):
        g = Graph([0] * 4, [(2, 0), (0, 3), (0, 1)])
        assert g.neighbors(0).tolist() == [1, 2, 3]
        assert g.neighbor_set(0) == {1, 2, 3}

    def test_has_edge_symmetry(self):
        g = triangle()
        for u in g.vertices():
            for v in g.vertices():
                assert g.has_edge(u, v) == g.has_edge(v, u)
                if u != v:
                    assert g.has_edge(u, v)

    def test_label_index(self):
        g = Graph([5, 5, 2], [(0, 1)])
        assert g.vertices_with_label(5).tolist() == [0, 1]
        assert g.vertices_with_label(2).tolist() == [2]
        assert g.vertices_with_label(99).size == 0
        assert g.label_frequency(5) == 2
        assert g.distinct_labels() == [2, 5]

    def test_neighbor_labels_is_sorted_multiset(self):
        g = Graph([3, 1, 1, 0], [(0, 1), (0, 2), (0, 3)])
        assert g.neighbor_labels(0) == [0, 1, 1]

    def test_edges_canonical(self):
        g = Graph([0] * 3, [(2, 1), (1, 0)])
        assert g.edges() == ((0, 1), (1, 2))

    def test_len_and_iter(self):
        g = triangle()
        assert len(g) == 3
        assert list(g) == [0, 1, 2]

    def test_labels_array_read_only(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.labels[0] = 9
        with pytest.raises(ValueError):
            g.neighbors(0)[0] = 9


class TestDerivedGraphs:
    def test_induced_subgraph_keeps_labels_and_edges(self):
        g = Graph([4, 5, 6, 7], [(0, 1), (1, 2), (2, 3), (0, 3)])
        sub, mapping = g.induced_subgraph([1, 2, 3])
        assert sub.num_vertices == 3
        assert [sub.label(v) for v in sub.vertices()] == [5, 6, 7]
        assert sub.num_edges == 2  # (1,2) and (2,3) survive
        assert mapping == {1: 0, 2: 1, 3: 2}

    def test_induced_subgraph_duplicate_rejected(self):
        with pytest.raises(InvalidGraphError):
            triangle().induced_subgraph([0, 0])

    @pytest.mark.parametrize("vertices", [[-1, 1], [1, 3], [0, 99], [-5]])
    def test_induced_subgraph_ids_out_of_range_rejected(self, vertices):
        g = Graph([5, 6, 7], [(0, 1), (1, 2)])
        with pytest.raises(InvalidGraphError, match="out of range for n=3"):
            g.induced_subgraph(vertices)

    def test_induced_subgraph_empty(self):
        sub, mapping = triangle().induced_subgraph([])
        assert sub.num_vertices == 0 and sub.num_edges == 0 and mapping == {}

    @given(
        st.integers(1, 14).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
                st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
                st.permutations(range(n)).flatmap(
                    lambda order: st.integers(0, n).map(lambda k: order[:k])
                ),
            )
        )
    )
    def test_induced_subgraph_matches_an_edge_scan(self, case):
        labels, pairs, chosen = case
        g = Graph(labels, [(u, v) for u, v in pairs if u != v])
        sub, mapping = g.induced_subgraph(chosen)
        # The oracle: scan every edge of the graph, keep those with both
        # ends chosen, relabel by position in ``chosen``.
        new = {old: i for i, old in enumerate(chosen)}
        kept = [(new[u], new[v]) for u, v in g.edges() if u in new and v in new]
        assert sub == Graph([labels[v] for v in chosen], kept)
        assert mapping == new

    def test_is_connected(self):
        assert triangle().is_connected()
        assert not Graph([0] * 4, [(0, 1), (2, 3)]).is_connected()
        assert Graph([0], []).is_connected()

    def test_normalized_adjacency_symmetric_with_self_loops(self):
        g = triangle()
        a = g.normalized_adjacency()
        assert a.shape == (3, 3)
        assert np.allclose(a, a.T)
        # Row sums of D^-1/2 (A+I) D^-1/2 are 1 for a regular graph.
        assert np.allclose(a.sum(axis=1), 1.0)

    def test_normalized_adjacency_rejects_large_graphs(self):
        g = Graph([0] * 5000, [])
        with pytest.raises(InvalidGraphError):
            g.normalized_adjacency()


class TestEquality:
    def test_equal_graphs(self):
        assert triangle() == triangle()
        assert hash(triangle()) == hash(triangle())

    def test_unequal_labels(self):
        a = Graph([0, 1], [(0, 1)])
        b = Graph([0, 2], [(0, 1)])
        assert a != b

    def test_unequal_edges(self):
        a = Graph([0, 0, 0], [(0, 1)])
        b = Graph([0, 0, 0], [(1, 2)])
        assert a != b

    def test_not_equal_to_other_types(self):
        assert triangle() != "graph"


def test_memory_bytes_positive_and_grows():
    small = Graph([0] * 10, [(i, i + 1) for i in range(9)])
    large = Graph([0] * 1000, [(i, i + 1) for i in range(999)])
    assert 0 < small.memory_bytes() < large.memory_bytes()


@st.composite
def random_graphs(draw, min_vertices: int = 0, max_vertices: int = 30):
    """Random labeled graphs, disconnected components welcome."""
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=70) if possible else st.just([])
    )
    return Graph(labels, edges)


@given(random_graphs(min_vertices=1))
def test_gather_neighbors_matches_window_concatenation(g: Graph):
    vertices = np.arange(g.num_vertices, dtype=np.int64)[::2]
    expected = np.concatenate(
        [g.indices[g.indptr[v] : g.indptr[v + 1]] for v in vertices]
        or [np.empty(0, dtype=np.int64)]
    )
    got = gather_neighbors(g.indptr, g.indices, vertices)
    assert np.array_equal(got, expected)
