"""Query graph extraction.

Sec. IV-A: "the query graphs are generated for each data graph by randomly
extracting connected subgraphs from G".  This module implements that
procedure: grow a connected vertex set by random walk / random frontier
expansion, then take the induced subgraph (optionally sparsified while
preserving connectivity, which matches the mix of dense and sparse queries
used by the Sun & Luo study).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.graphs.graph import Graph

__all__ = ["extract_query", "generate_query_set", "sparsify_to_degree"]


def extract_query(
    data_graph: Graph,
    num_vertices: int,
    rng: np.random.Generator,
    *,
    edge_keep_prob: float = 1.0,
    max_attempts: int = 200,
) -> Graph:
    """Extract one connected query graph with ``num_vertices`` vertices.

    A start vertex is sampled uniformly; the vertex set grows by repeatedly
    adding a uniform random neighbour of the current set (random frontier
    expansion).  The induced subgraph is returned with vertices relabeled
    ``0..k-1``.  With ``edge_keep_prob < 1`` non-tree edges are dropped
    independently, yielding sparser queries while keeping connectivity.

    Raises
    ------
    DatasetError
        If no connected ``num_vertices``-subgraph is found within
        ``max_attempts`` start vertices (e.g. the graph is too small or too
        disconnected).
    """
    n = data_graph.num_vertices
    if num_vertices < 1:
        raise DatasetError("query size must be >= 1")
    if num_vertices > n:
        raise DatasetError(f"query size {num_vertices} exceeds |V(G)|={n}")

    for _ in range(max_attempts):
        start = int(rng.integers(0, n))
        chosen: list[int] = [start]
        chosen_set = {start}
        frontier: list[int] = data_graph.neighbors(start).tolist()
        while len(chosen) < num_vertices and frontier:
            idx = int(rng.integers(0, len(frontier)))
            v = frontier.pop(idx)
            if v in chosen_set:
                continue
            chosen.append(v)
            chosen_set.add(v)
            frontier += [
                u for u in data_graph.neighbors(v).tolist() if u not in chosen_set
            ]
        if len(chosen) == num_vertices:
            query, _ = data_graph.induced_subgraph(chosen)
            if edge_keep_prob < 1.0:
                query = _sparsify(query, edge_keep_prob, rng)
            return query
    raise DatasetError(
        f"failed to extract a connected {num_vertices}-vertex query "
        f"after {max_attempts} attempts"
    )


def _sparsify(query: Graph, keep_prob: float, rng: np.random.Generator) -> Graph:
    """Drop non-spanning-tree edges independently with prob ``1-keep_prob``."""
    n = query.num_vertices
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept: list[tuple[int, int]] = []
    maybe: list[tuple[int, int]] = []
    edge_order = list(query.edges())
    rng.shuffle(edge_order)
    for u, v in edge_order:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.append((u, v))
        else:
            maybe.append((u, v))
    kept.extend((u, v) for u, v in maybe if rng.random() < keep_prob)
    return Graph(query.labels, kept)


def sparsify_to_degree(
    query: Graph, target_avg_degree: float, rng: np.random.Generator
) -> Graph:
    """Randomly drop non-tree edges until the average degree is near target.

    Induced subgraphs of dense data graphs (e.g. web graphs with d ≈ 37)
    are nearly cliques, which no backtracking algorithm can enumerate in
    reasonable time; the query workloads of [14] mix sparse and dense
    queries.  Keeping a spanning tree guarantees connectivity.
    """
    n = query.num_vertices
    if n <= 2:
        return query
    target_edges = max(n - 1, int(round(target_avg_degree * n / 2.0)))
    current = query.num_edges
    if current <= target_edges:
        return query

    # Partition edges into a spanning tree (always kept) and extras, then
    # keep exactly the number of extras that meets the target.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: list[tuple[int, int]] = []
    extras: list[tuple[int, int]] = []
    edge_order = list(query.edges())
    rng.shuffle(edge_order)
    for u, v in edge_order:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
        else:
            extras.append((u, v))
    wanted_extra = target_edges - len(tree)
    kept = tree + extras[:max(wanted_extra, 0)]
    return Graph(query.labels, kept)


def generate_query_set(
    data_graph: Graph,
    num_vertices: int,
    count: int,
    *,
    seed: int | None = None,
    edge_keep_prob: float = 1.0,
    target_avg_degree: float | None = None,
) -> list[Graph]:
    """Generate ``count`` connected query graphs of the given size.

    ``target_avg_degree`` (if set) post-sparsifies each query toward that
    average degree while keeping it connected.
    """
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        query = extract_query(
            data_graph, num_vertices, rng, edge_keep_prob=edge_keep_prob
        )
        if target_avg_degree is not None:
            query = sparsify_to_degree(query, target_avg_degree, rng)
        queries.append(query)
    return queries
