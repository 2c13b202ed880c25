"""Tests for canonical forms and workload de-duplication."""

import time

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidGraphError
from repro.graphs import Graph, erdos_renyi
from repro.graphs.canonical import (
    MAX_CANONICAL_VERTICES,
    canonical_fingerprint,
    canonical_form,
    deduplicate_queries,
    relabel_graph,
    reset_canonicalization_cache,
)


def relabel(graph: Graph, permutation: list[int]) -> Graph:
    """Isomorphic copy under a vertex permutation.

    Deliberately local: the independent oracle the library's
    :func:`relabel_graph` (and everything built on it) is checked
    against.
    """
    labels = [0] * graph.num_vertices
    for old, new in enumerate(permutation):
        labels[new] = graph.label(old)
    edges = [(permutation[u], permutation[v]) for u, v in graph.edges()]
    return Graph(labels, edges)


class TestRelabelGraph:
    def test_agrees_with_the_local_oracle(self):
        g = erdos_renyi(12, 22, 3, seed=8)
        rng = np.random.default_rng(1)
        for _ in range(5):
            perm = rng.permutation(12).tolist()
            assert relabel_graph(g, perm) == relabel(g, perm)

    def test_identity_and_bad_permutations(self):
        g = erdos_renyi(6, 8, 2, seed=8)
        assert relabel_graph(g, range(6)) == g
        with pytest.raises(InvalidGraphError):
            relabel_graph(g, [0, 1, 2, 3, 4, 4])
        with pytest.raises(InvalidGraphError):
            relabel_graph(g, [0, 1, 2])


class TestCanonicalForm:
    def test_mapping_reproduces_canonical_graph(self):
        g = erdos_renyi(10, 18, 3, seed=2)
        cf = canonical_form(g)
        assert relabel(g, list(cf.mapping)) == cf.graph
        # order and mapping are inverse permutations
        for u in g.vertices():
            assert cf.order[cf.mapping[u]] == u

    def test_invariant_under_permutation(self):
        g = erdos_renyi(11, 20, 3, seed=3)
        cf = canonical_form(g)
        rng = np.random.default_rng(0)
        for _ in range(8):
            perm = rng.permutation(11).tolist()
            other = canonical_form(relabel(g, perm))
            assert other.graph == cf.graph
            assert other.fingerprint == cf.fingerprint

    def test_idempotent(self):
        g = erdos_renyi(9, 14, 2, seed=4)
        cf = canonical_form(g)
        again = canonical_form(cf.graph)
        assert again.graph == cf.graph
        assert tuple(again.order) == tuple(range(9))

    def test_label_and_structure_sensitivity(self):
        path = Graph([0, 0, 0], [(0, 1), (1, 2)])
        relabeled = Graph([0, 1, 0], [(0, 1), (1, 2)])
        triangle = Graph([0, 0, 0], [(0, 1), (1, 2), (0, 2)])
        prints = {
            canonical_fingerprint(path),
            canonical_fingerprint(relabeled),
            canonical_fingerprint(triangle),
        }
        assert len(prints) == 3

    def test_separates_wl_indistinguishable_regular_graphs(self):
        # C6 vs 2×C3: same degree sequence, classic 1-WL failure case.
        c6 = Graph([0] * 6, [(i, (i + 1) % 6) for i in range(6)])
        two_triangles = Graph(
            [0] * 6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        )
        assert canonical_fingerprint(c6) != canonical_fingerprint(two_triangles)

    def test_symmetric_graphs_stay_tractable(self):
        star = Graph([0] * 17, [(0, i) for i in range(1, 17)])
        clique = Graph([0] * 8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
        cycle = Graph([0] * 32, [(i, (i + 1) % 32) for i in range(32)])
        cube = Graph(
            [0] * 16,
            [(i, i ^ (1 << b)) for i in range(16) for b in range(4) if i < i ^ (1 << b)],
        )
        for g in (star, clique, cycle, cube):
            cf = canonical_form(g)
            perm = np.random.default_rng(7).permutation(g.num_vertices).tolist()
            assert canonical_form(relabel(g, perm)).fingerprint == cf.fingerprint

    def test_match_reindexing_round_trips(self):
        g = erdos_renyi(7, 10, 2, seed=6)
        cf = canonical_form(g)
        match = tuple(range(100, 107))  # original-vertex-indexed payload
        canonical = tuple(match[v] for v in cf.order)  # canonical-indexed
        assert cf.to_original(canonical) == match

    def test_empty_and_singleton(self):
        assert canonical_fingerprint(Graph([], [])) == canonical_fingerprint(
            Graph([], [])
        )
        assert canonical_fingerprint(Graph([3], [])) != canonical_fingerprint(
            Graph([4], [])
        )

    def test_size_guard(self):
        big = Graph([0] * (MAX_CANONICAL_VERTICES + 1), [])
        with pytest.raises(InvalidGraphError):
            canonical_form(big)

    def test_adversarially_symmetric_graph_fails_fast_not_hangs(self):
        # Strongly regular graphs defeat both prunes; the node budget
        # turns an hours-long search into a bounded, catchable error.
        from repro.errors import CanonicalizationError

        n = 5  # rook's graph R(5,5)
        verts = [(i, j) for i in range(n) for j in range(n)]
        edges = [
            (a, b)
            for a in range(len(verts))
            for b in range(a + 1, len(verts))
            if verts[a][0] == verts[b][0] or verts[a][1] == verts[b][1]
        ]
        rook = Graph([0] * len(verts), edges)
        with pytest.raises(CanonicalizationError, match="search budget"):
            canonical_form(rook)
        # Repeats (and relabeled isomorphs, via the WL class) hit the
        # negative cache instead of re-burning the search budget.
        start = time.perf_counter()
        with pytest.raises(CanonicalizationError, match="known"):
            canonical_form(rook)
        with pytest.raises(CanonicalizationError, match="known"):
            canonical_form(relabel(rook, list(np.random.default_rng(0)
                                              .permutation(len(verts)))))
        assert time.perf_counter() - start < 0.1
        reset_canonicalization_cache()


@given(st.integers(0, 300), st.integers(2, 9))
@settings(max_examples=25)
def test_canonical_fingerprint_matches_exact_isomorphism(seed, n):
    # Fingerprint equality must coincide exactly with labeled-graph
    # isomorphism on small random pairs (both directions).
    rng = np.random.default_rng(seed)
    g1 = erdos_renyi(n, min(n * (n - 1) // 2, n + 3), 2, seed=seed)
    if rng.random() < 0.5:
        g2 = relabel(g1, rng.permutation(n).tolist())
    else:
        g2 = erdos_renyi(n, min(n * (n - 1) // 2, n + 3), 2, seed=seed + 1)

    def to_nx(g):
        out = nx.Graph()
        for v in g.vertices():
            out.add_node(v, label=g.label(v))
        out.add_edges_from(g.edges())
        return out

    isomorphic = nx.is_isomorphic(
        to_nx(g1), to_nx(g2), node_match=lambda a, b: a["label"] == b["label"]
    )
    assert (canonical_fingerprint(g1) == canonical_fingerprint(g2)) == isomorphic


class TestDeduplicate:
    def test_removes_isomorphic_duplicates(self):
        g = erdos_renyi(8, 12, 2, seed=9)
        copies = [relabel(g, np.random.default_rng(s).permutation(8).tolist())
                  for s in range(4)]
        other = erdos_renyi(8, 12, 2, seed=10)
        unique = deduplicate_queries([g, *copies, other])
        assert len(unique) <= 2
        assert unique[0] is g

    def test_preserves_order(self):
        a = Graph([0], [])
        b = Graph([1], [])
        assert deduplicate_queries([a, b, a]) == [a, b]

    def test_keeps_non_isomorphic_wl_twins(self):
        # Both connected, 3-regular and one-label: 1-WL refinement cannot
        # tell them apart, but the cube has no odd cycle and the Möbius
        # ladder has 5-cycles.
        cube = Graph(
            [0] * 8,
            [(i, i ^ (1 << b)) for i in range(8) for b in range(3) if i < i ^ (1 << b)],
        )
        rim = [(i, (i + 1) % 8) for i in range(8)]
        ladder = Graph([0] * 8, rim + [(i, i + 4) for i in range(4)])
        assert deduplicate_queries([cube, ladder]) == [cube, ladder]

    def test_uncanonicalizable_query_is_kept(self, monkeypatch):
        import repro.graphs.canonical as canonical_module

        monkeypatch.setattr(canonical_module, "CANONICAL_SEARCH_BUDGET", 3)
        monkeypatch.setattr(canonical_module, "_uncanonicalizable_graphs", {})
        monkeypatch.setattr(canonical_module, "_uncanonicalizable_wl", set())
        path = Graph([0] * 5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert deduplicate_queries([path, path]) == [path, path]
