"""Random labeled graph generators.

The paper evaluates on six real graphs (Table II).  Those graphs are not
shipped with this reproduction, so :mod:`repro.datasets` synthesizes
stand-ins using the generators here, matching vertex count (possibly
scaled), average degree, label count and label skew.

Two degree models are provided:

* ``erdos_renyi`` — homogeneous G(n, m)-style graphs.
* ``chung_lu`` — expected-degree (power-law capable) graphs, the usual model
  for social / web networks such as DBLP, Youtube and EU2005.

Labels are drawn from a Zipf-like distribution so that, as in real data,
a few labels are frequent and most are rare.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import InvalidGraphError
from repro.graphs.graph import Graph, edges_to_csr

__all__ = [
    "zipf_labels",
    "erdos_renyi",
    "chung_lu",
    "powerlaw_degree_weights",
    "connect_components",
]


def zipf_labels(
    n: int, num_labels: int, skew: float, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` labels from ``{0..num_labels-1}`` with Zipf skew.

    ``skew = 0`` gives the uniform distribution; larger values concentrate
    mass on low label ids.  Every label id is guaranteed to appear at least
    once when ``n >= num_labels`` so dataset label counts match Table II.
    """
    if num_labels <= 0:
        raise InvalidGraphError("num_labels must be positive")
    ranks = np.arange(1, num_labels + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    labels = rng.choice(num_labels, size=n, p=weights)
    if n >= num_labels:
        # Stamp each label onto one distinct random vertex to guarantee
        # presence; the overwritten positions are uniformly random.
        slots = rng.choice(n, size=num_labels, replace=False)
        labels[slots] = np.arange(num_labels)
    return labels.astype(np.int64)


def erdos_renyi(
    n: int,
    num_edges: int,
    num_labels: int,
    *,
    label_skew: float = 0.8,
    seed: int | None = None,
) -> Graph:
    """Uniform random graph with exactly ``num_edges`` distinct edges."""
    rng = np.random.default_rng(seed)
    max_edges = n * (n - 1) // 2
    if num_edges > max_edges:
        raise InvalidGraphError(f"num_edges={num_edges} exceeds max {max_edges}")
    edges: set[tuple[int, int]] = set()
    while len(edges) < num_edges:
        need = num_edges - len(edges)
        us = rng.integers(0, n, size=2 * need + 8)
        vs = rng.integers(0, n, size=2 * need + 8)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u == v:
                continue
            edges.add((u, v) if u < v else (v, u))
            if len(edges) == num_edges:
                break
    labels = zipf_labels(n, num_labels, label_skew, rng)
    return _graph_from_edge_set(n, labels, edges)


def _graph_from_edge_set(
    n: int, labels: np.ndarray, edges: set[tuple[int, int]] | list[tuple[int, int]]
) -> Graph:
    """Canonicalize freshly generated edges once and wrap the CSR buffers.

    Equivalent to ``Graph(labels, edges)`` — :func:`edges_to_csr` is the
    single validation/canonicalization pass either way — written via the
    :meth:`Graph.from_csr` entry point the generators share with IO.
    """
    return Graph.from_csr(labels, *edges_to_csr(n, edges))


def powerlaw_degree_weights(n: int, avg_degree: float, exponent: float) -> np.ndarray:
    """Expected-degree weights following a truncated power law.

    Weights are ``w_i ∝ (i + i0)^(-1/(exponent-1))`` rescaled so their mean
    is ``avg_degree`` — the standard Chung–Lu construction for a power-law
    degree distribution with the given exponent.
    """
    if exponent <= 1.0:
        raise InvalidGraphError("power-law exponent must be > 1")
    i0 = max(1.0, n ** 0.01)
    raw = (np.arange(n, dtype=np.float64) + i0) ** (-1.0 / (exponent - 1.0))
    raw *= avg_degree * n / raw.sum()
    # Cap weights to keep edge probabilities valid (w_i w_j / S <= 1).
    cap = math.sqrt(avg_degree * n) * 0.95
    return np.minimum(raw, cap)


def chung_lu(
    n: int,
    avg_degree: float,
    num_labels: int,
    *,
    exponent: float = 2.5,
    label_skew: float = 0.8,
    seed: int | None = None,
) -> Graph:
    """Chung–Lu expected-degree random graph with Zipf labels.

    Each edge ``(i, j)`` appears with probability ``min(1, w_i w_j / S)``
    where ``S = sum(w)``.  Sampling uses the efficient "skipping" technique
    over vertices sorted by weight, giving ``O(n + m)`` expected time.
    """
    rng = np.random.default_rng(seed)
    weights = powerlaw_degree_weights(n, avg_degree, exponent)
    order = np.argsort(weights)[::-1]
    w = weights[order]
    total = w.sum()

    edges: set[tuple[int, int]] = set()
    for i in range(n - 1):
        wi = w[i]
        if wi <= 0:
            break
        j = i + 1
        p = min(1.0, wi * w[j] / total) if j < n else 0.0
        while j < n:
            if p < 1.0:
                # Geometric skip over non-edges.
                r = rng.random()
                skip = int(math.floor(math.log(r) / math.log(1.0 - p))) if p > 0 else n
                j += skip
            if j >= n:
                break
            q = min(1.0, wi * w[j] / total)
            if p >= 1.0 or rng.random() < q / p:
                u, v = int(order[i]), int(order[j])
                edges.add((u, v) if u < v else (v, u))
            j += 1
            if j < n:
                p = min(1.0, wi * w[j] / total)
    labels = zipf_labels(n, num_labels, label_skew, rng)
    return _graph_from_edge_set(n, labels, edges)


def connect_components(graph: Graph, rng: np.random.Generator) -> Graph:
    """Return a connected supergraph by linking components with random edges.

    Dataset graphs must be connected so query extraction by random walk can
    reach any region; real graphs in the paper are dominated by one giant
    component, so adding one bridge edge per extra component is faithful.
    """
    n = graph.num_vertices
    if n == 0:
        return graph
    comp = np.full(n, -1, dtype=np.int64)
    n_comp = 0
    for s in range(n):
        if comp[s] >= 0:
            continue
        comp[s] = n_comp
        stack = [s]
        while stack:
            u = stack.pop()
            for v in graph.neighbors(u):
                v = int(v)
                if comp[v] < 0:
                    comp[v] = n_comp
                    stack.append(v)
        n_comp += 1
    if n_comp == 1:
        return graph
    reps = [int(np.flatnonzero(comp == c)[rng.integers(0, (comp == c).sum())]) for c in range(n_comp)]
    extra = [(reps[i - 1], reps[i]) for i in range(1, n_comp)]
    return _graph_from_edge_set(n, graph.labels, list(graph.edges()) + extra)
