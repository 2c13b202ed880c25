"""Tests for Hopcroft–Karp and the semi-perfect matching predicate."""

import networkx as nx
from hypothesis import given
from hypothesis import strategies as st

from repro.matching import has_semi_perfect_matching
from repro.matching.bipartite import hopcroft_karp


class TestHopcroftKarp:
    def test_perfect_matching(self):
        # 0-0, 1-1, 2-2 available.
        adjacency = [[0, 1], [1, 2], [2]]
        assert hopcroft_karp(adjacency, 3) == 3

    def test_bottleneck(self):
        # Both left vertices only connect to right vertex 0.
        adjacency = [[0], [0]]
        assert hopcroft_karp(adjacency, 1) == 1

    def test_empty_left(self):
        assert hopcroft_karp([], 5) == 0

    def test_isolated_left_vertex(self):
        assert hopcroft_karp([[0], []], 1) == 1

    def test_augmenting_path_needed(self):
        # Greedy (0->0, 1->?) fails; augmenting path fixes it.
        adjacency = [[0], [0, 1]]
        assert hopcroft_karp(adjacency, 2) == 2


class TestSemiPerfect:
    def test_saturating_matching_exists(self):
        assert has_semi_perfect_matching([[0, 1], [1]], 2)

    def test_more_left_than_right(self):
        assert not has_semi_perfect_matching([[0], [0], [0]], 1)

    def test_empty_neighbourhood_fails_fast(self):
        assert not has_semi_perfect_matching([[0], []], 2)

    def test_hall_violation(self):
        # Three left vertices all confined to two right vertices.
        assert not has_semi_perfect_matching([[0, 1], [0, 1], [0, 1]], 3)


@given(
    st.integers(1, 7),
    st.integers(1, 7),
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=30),
)
def test_matches_networkx_maximum_matching(nl, nr, raw_edges):
    adjacency = [[] for _ in range(nl)]
    nxg = nx.Graph()
    nxg.add_nodes_from(f"L{i}" for i in range(nl))
    nxg.add_nodes_from(f"R{j}" for j in range(nr))
    for u, v in raw_edges:
        if u < nl and v < nr and v not in adjacency[u]:
            adjacency[u].append(v)
            nxg.add_edge(f"L{u}", f"R{v}")
    expected = len(nx.bipartite.maximum_matching(
        nxg, top_nodes=[f"L{i}" for i in range(nl)]
    )) // 2
    assert hopcroft_karp(adjacency, nr) == expected
