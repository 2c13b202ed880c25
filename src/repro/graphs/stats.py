"""Graph statistics used by ordering heuristics and feature initialization.

The paper's feature vector (Sec. III-C) and several baseline orderers need
data-graph-wide statistics: label frequencies, counts of vertices whose
degree exceeds a threshold, and per-label neighbour counts.  Computing
these lazily per query would make ordering O(|V(G)|); :class:`GraphStats`
precomputes them once per data graph.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["GraphStats", "label_histogram"]


def label_histogram(graph: Graph) -> dict[int, int]:
    """Map ``label -> number of vertices carrying it``."""
    values, counts = np.unique(graph.labels, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


class GraphStats:
    """Precomputed statistics of a data graph.

    Parameters
    ----------
    graph:
        The data graph ``G``.
    """

    def __init__(self, graph: Graph):
        self.graph = graph

    @cached_property
    def label_counts(self) -> dict[int, int]:
        """Frequency of each label in ``G``."""
        return label_histogram(self.graph)

    @cached_property
    def sorted_degrees(self) -> np.ndarray:
        """All vertex degrees in ascending order (for fast rank queries)."""
        return np.sort(self.graph.degrees)

    def count_degree_greater(self, d: int) -> int:
        """``|{v in G : d(v) > d}|`` — feature ``h_u(4)`` numerator."""
        idx = np.searchsorted(self.sorted_degrees, d, side="right")
        return int(self.sorted_degrees.size - idx)

    def label_frequency(self, lab: int) -> int:
        """``|{v in G : L(v) = lab}|`` — feature ``h_u(5)`` numerator."""
        return self.label_counts.get(int(lab), 0)

    def edge_label_frequency(self, lab_u: int, lab_v: int) -> int:
        """Number of data edges whose endpoint labels match ``{lab_u, lab_v}``.

        Used by the QuickSI infrequent-edge-first ordering.  A lookup in
        :attr:`_edge_label_counts`, which counts every label pair at once.
        """
        key = (lab_u, lab_v) if lab_u <= lab_v else (lab_v, lab_u)
        return self._edge_label_counts.get(key, 0)

    @cached_property
    def _edge_label_counts(self) -> dict[tuple[int, int], int]:
        """``(min label, max label) -> number of data edges with those labels``.

        One ``np.unique`` over the ``u < v`` CSR slots, each edge encoded
        by its ordered endpoint-label pair.
        """
        g = self.graph
        if g.indices.size == 0:
            return {}
        eu, ev = g._edge_pairs()
        a = g.labels[eu].astype(np.int64)
        b = g.labels[ev].astype(np.int64)
        num_labels = int(g.labels.max()) + 1
        keys, counts = np.unique(
            np.minimum(a, b) * num_labels + np.maximum(a, b), return_counts=True
        )
        lo, hi = np.divmod(keys, num_labels)
        return dict(zip(zip(lo.tolist(), hi.tolist()), counts.tolist()))

    @cached_property
    def _label_neighbor_index(self) -> dict[tuple[int, int], np.ndarray]:
        """``(lab, k) -> sorted vertices with at least k lab-labeled neighbours``.

        Every edge slot ``(v, w)`` contributes exactly one entry — ``v``
        under ``(L(w), k)`` where ``w`` is ``v``'s k-th ``L(w)``-labeled
        neighbour — so the index is one ``2|E|``-entry vertex array cut
        into slices, whatever the number of labels.  It is built once per
        data graph and only read afterwards, so any number of threads
        filtering against one :class:`GraphStats` share it without a lock
        and nothing is ever evicted.
        """
        g = self.graph
        if g.indices.size == 0:
            return {}
        num_labels = int(g.labels.max()) + 1
        owner = np.repeat(np.arange(g.num_vertices, dtype=np.int64), g.degrees)
        pairs, counts = np.unique(
            owner * num_labels + g.labels[g.indices], return_counts=True
        )
        # One row per edge slot: the (vertex, label) pair with count c
        # expands to ranks 1..c.
        vertex, label = np.divmod(np.repeat(pairs, counts), num_labels)
        first = np.cumsum(counts) - counts
        rank = np.arange(vertex.size, dtype=np.int64) - np.repeat(first, counts) + 1
        group = label * (int(counts.max()) + 1) + rank
        # Rows are vertex-ascending; a stable sort keeps them so per group.
        by_group = np.argsort(group, kind="stable")
        vertex = vertex[by_group]
        vertex.setflags(write=False)
        starts = np.flatnonzero(np.diff(group[by_group], prepend=-1))
        bounds = np.append(starts, vertex.size).tolist()
        heads = by_group[starts]
        keys = zip(label[heads].tolist(), rank[heads].tolist())
        return {
            key: vertex[lo:hi] for key, lo, hi in zip(keys, bounds[:-1], bounds[1:])
        }

    def with_label_neighbors(
        self, vertices: np.ndarray, lab: int, at_least: int
    ) -> np.ndarray:
        """The members of sorted ``vertices`` with ``>= at_least`` ``lab``-neighbours.

        This is the NLF rule for one required label, as a sorted-array
        intersection against one slice of the label-neighbour index — no
        per-vertex count array is materialized.  Order is preserved, so a
        chain of calls keeps a candidate array sorted and duplicate-free.
        """
        if at_least <= 0 or vertices.size == 0:
            return vertices
        having = self._label_neighbor_index.get((int(lab), int(at_least)))
        if having is None:
            return vertices[:0]
        at = having.searchsorted(vertices)
        return vertices[having.take(at, mode="clip") == vertices]
