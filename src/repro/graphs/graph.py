"""Labeled undirected graph used for both query and data graphs.

The paper (Sec. II-A) works on undirected vertex-labeled graphs
``G = (V, E)`` with a label function ``f_l: V -> L``.  This module provides
an immutable :class:`Graph` optimized for the two access patterns that
dominate subgraph matching:

* fast neighbourhood iteration / membership (``N(v)``, ``e(u, v)``), and
* label-indexed vertex lookup (``vertices with label l``).

Vertices are dense integers ``0..n-1``; labels are small non-negative
integers.  Adjacency is stored as a single contiguous CSR pair
``(indptr, indices)`` of int64 arrays — the canonical representation the
whole matching stack (filters, :class:`CandidateSpace`, the iterative
enumerator) consumes.  Per-vertex neighbour lists are zero-copy slices of
``indices``; the frozenset views behind :meth:`Graph.neighbor_set`'s
O(1) membership tests (orderer heuristics, the DP-iso filter) are
derived lazily, per vertex, on first access, so CSR-only pipelines never
pay for the Python object churn.

Construction is vectorized: edges are normalized and de-duplicated with
one sort over an encoded edge-key array instead of Python set churn,
and :meth:`Graph.from_csr` offers a trusted fast path for callers (IO,
generators) that already hold canonical CSR buffers.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import InvalidGraphError

__all__ = ["Graph", "edges_to_csr", "gather_neighbors"]

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


def _edge_array(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Coerce an edge collection into an ``(m, 2)`` int64 array."""
    if isinstance(edges, np.ndarray):
        arr = np.asarray(edges, dtype=np.int64)
    else:
        pairs = list(edges)
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        arr = np.asarray(pairs, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InvalidGraphError("edges must be (u, v) pairs")
    return arr


def edges_to_csr(
    num_vertices: int, edges: Iterable[tuple[int, int]] | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and canonicalize edges into CSR ``(indptr, indices)``.

    Duplicates and orientation are normalized away with one sort over
    encoded edge keys; self loops and out-of-range endpoints raise
    :class:`InvalidGraphError`.  The result is the canonical symmetric
    CSR adjacency (per-vertex neighbour lists sorted ascending) accepted
    by :meth:`Graph.from_csr`.
    """
    n = int(num_vertices)
    arr = _edge_array(edges)
    u, v = arr[:, 0], arr[:, 1]
    if arr.shape[0]:
        loops = u == v
        if loops.any():
            raise InvalidGraphError(
                f"self loop on vertex {int(u[int(np.argmax(loops))])}"
            )
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            i = int(np.argmax(bad))
            raise InvalidGraphError(
                f"edge ({int(u[i])}, {int(v[i])}) out of range for n={n}"
            )
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    # One sort over encoded keys replaces the Python set.  Not np.unique:
    # numpy 2.4 answers it from a hash table, ~10x slower at these sizes.
    keys = np.sort(lo * n + hi)
    fresh = np.ones(keys.size, dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    keys = keys[fresh]
    edge_u = keys // n
    edge_v = keys % n
    directed = np.concatenate([keys, edge_v * n + edge_u])
    directed.sort()
    indices = directed % n
    counts = np.bincount(directed // n, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, indices


def gather_neighbors(
    indptr: np.ndarray, indices: np.ndarray, vertices: np.ndarray
) -> np.ndarray:
    """Concatenated neighbour lists of ``vertices`` (one vectorized gather).

    Equivalent to ``np.concatenate([indices[indptr[v]:indptr[v+1]] ...])``
    without the per-vertex Python loop: the flat output position ``j`` is
    mapped back into the right CSR window by repeating each window's
    start-offset delta ``counts[i]`` times.
    """
    starts = indptr[vertices]
    counts = indptr[vertices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shifts = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return indices[np.arange(total, dtype=np.int64) + shifts]


class Graph:
    """An immutable undirected vertex-labeled graph over CSR storage.

    Parameters
    ----------
    labels:
        Sequence of per-vertex integer labels; its length defines ``n``.
    edges:
        Iterable of ``(u, v)`` pairs (or an ``(m, 2)`` array).  Duplicates
        and orientation are normalized away; self loops are rejected.

    Examples
    --------
    >>> g = Graph([0, 1, 0], [(0, 1), (1, 2)])
    >>> g.num_vertices, g.num_edges
    (3, 2)
    >>> g.neighbors(1).tolist()
    [0, 2]
    """

    __slots__ = (
        "_labels",
        "_indptr",
        "_indices",
        "_num_edges",
        "_label_index",
        "_degrees",
        "_neighbor_sets",
        "_edge_list",
    )

    def __init__(self, labels: Sequence[int], edges: Iterable[tuple[int, int]]):
        labels_arr = np.asarray(labels, dtype=np.int64)
        indptr, indices = edges_to_csr(int(labels_arr.size), edges)
        self._init_from_csr(labels_arr, indptr, indices)

    @classmethod
    def from_csr(
        cls,
        labels: Sequence[int] | np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "Graph":
        """Trusted fast path: wrap canonical CSR buffers without validation.

        ``(indptr, indices)`` must be a symmetric adjacency with sorted,
        duplicate-free neighbour lists and no self loops — exactly what
        :func:`edges_to_csr` produces.  IO and the random generators use
        this to skip re-validation of edges they just canonicalized.

        Ownership of the buffers transfers to the graph: when they are
        already int64 they are wrapped (not copied) and frozen read-only
        in place.  Pass copies if the caller needs to keep mutating them.
        """
        labels_arr = np.asarray(labels, dtype=np.int64)
        indptr_arr = np.asarray(indptr, dtype=np.int64)
        indices_arr = np.asarray(indices, dtype=np.int64)
        if indptr_arr.size != labels_arr.size + 1:
            raise InvalidGraphError(
                f"indptr has {indptr_arr.size} entries for n={labels_arr.size}"
            )
        self = cls.__new__(cls)
        self._init_from_csr(labels_arr, indptr_arr, indices_arr)
        return self

    def _init_from_csr(
        self, labels_arr: np.ndarray, indptr: np.ndarray, indices: np.ndarray
    ) -> None:
        if labels_arr.ndim != 1:
            raise InvalidGraphError("labels must be a 1-D sequence")
        if labels_arr.size and labels_arr.min() < 0:
            raise InvalidGraphError("labels must be non-negative integers")
        labels_arr.setflags(write=False)
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._labels = labels_arr
        self._indptr = indptr
        self._indices = indices
        self._num_edges = int(indices.size) // 2
        self._degrees = np.diff(indptr)
        self._degrees.setflags(write=False)
        # Lazy views: frozenset neighbourhoods (O(1) membership tests)
        # and the tuple-of-tuples edge list.
        self._neighbor_sets: list[frozenset[int] | None] | None = None
        self._edge_list: tuple[tuple[int, int], ...] | None = None

        by_label = np.argsort(labels_arr, kind="stable")
        by_label.setflags(write=False)
        sorted_labels = labels_arr[by_label]
        uniq, starts = np.unique(sorted_labels, return_index=True)
        bounds = np.append(starts, labels_arr.size)
        self._label_index: dict[int, np.ndarray] = {
            int(lab): by_label[int(s) : int(e)]
            for lab, s, e in zip(uniq.tolist(), bounds[:-1], bounds[1:])
        }

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return int(self._labels.size)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._num_edges

    @property
    def labels(self) -> np.ndarray:
        """Read-only array of per-vertex labels."""
        return self._labels

    @property
    def degrees(self) -> np.ndarray:
        """Read-only array of vertex degrees."""
        return self._degrees

    @property
    def indptr(self) -> np.ndarray:
        """CSR row-pointer array (read-only, length ``n + 1``)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column-index array (read-only, length ``2|E|``)."""
        return self._indices

    @property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical ``(indptr, indices)`` adjacency pair."""
        return self._indptr, self._indices

    @property
    def num_labels(self) -> int:
        """Number of distinct labels present in the graph."""
        return len(self._label_index)

    @property
    def average_degree(self) -> float:
        """Average vertex degree ``2|E| / |V|`` (0.0 for the empty graph)."""
        if self.num_vertices == 0:
            return 0.0
        return 2.0 * self._num_edges / self.num_vertices

    @property
    def max_degree(self) -> int:
        """Largest vertex degree (0 for the empty graph)."""
        if self.num_vertices == 0:
            return 0
        return int(self._degrees.max())

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def label(self, v: int) -> int:
        """Label of vertex ``v``."""
        return int(self._labels[v])

    def degree(self, v: int) -> int:
        """Degree ``d(v)``."""
        return int(self._degrees[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbours ``N(v)`` as a zero-copy CSR slice."""
        if not 0 <= v < self._degrees.size:
            raise IndexError(f"vertex {v} out of range")
        return self._indices[self._indptr[v] : self._indptr[v + 1]]

    def neighbor_set(self, v: int) -> frozenset[int]:
        """Neighbours of ``v`` as a frozenset (O(1) membership).

        Materialized lazily, one vertex at a time: only the orderer
        heuristics and the DP-iso filter take this path, so CSR-only
        pipelines never build the sets.
        """
        sets = self._neighbor_sets
        if sets is None:
            sets = self._neighbor_sets = [None] * self.num_vertices
        s = sets[v]
        if s is None:
            s = sets[v] = frozenset(self.neighbors(v).tolist())
        return s

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``e(u, v)`` exists."""
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    def vertices(self) -> range:
        """Iterable over all vertex ids."""
        return range(self.num_vertices)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        if self._edge_list is None:
            eu, ev = self._edge_pairs()
            self._edge_list = tuple(zip(eu.tolist(), ev.tolist()))
        return self._edge_list

    def _edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical ``u < v`` edge endpoints derived from the CSR arrays."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self._degrees)
        mask = src < self._indices
        return src[mask], self._indices[mask]

    def vertices_with_label(self, lab: int) -> np.ndarray:
        """Sorted vertex ids having label ``lab`` (empty array if none)."""
        return self._label_index.get(int(lab), _EMPTY)

    def label_frequency(self, lab: int) -> int:
        """Number of vertices carrying label ``lab``."""
        return int(self._label_index.get(int(lab), _EMPTY).size)

    def distinct_labels(self) -> list[int]:
        """Sorted list of labels present in the graph."""
        return sorted(self._label_index)

    def neighbor_labels(self, v: int) -> list[int]:
        """Sorted multiset of labels of ``N(v)``."""
        return sorted(self._labels[self.neighbors(v)].tolist())

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def induced_subgraph(self, vertices: Sequence[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph (with vertices relabeled ``0..k-1`` in the
        given order) and the mapping ``old id -> new id``.  The work is
        proportional to the chosen vertices' degrees: only their own CSR
        rows are read, never the whole edge set.
        """
        vlist = [int(v) for v in vertices]
        k = len(vlist)
        n = self.num_vertices
        bad = [v for v in vlist if not 0 <= v < n]
        if bad:
            raise InvalidGraphError(
                f"induced_subgraph: vertex {bad[0]} out of range for n={n}"
            )
        if len(set(vlist)) != k:
            raise InvalidGraphError("induced_subgraph: duplicate vertices")
        chosen = np.array(vlist, dtype=np.int64)
        by_id = np.argsort(chosen)
        sorted_ids = chosen[by_id]
        # Every neighbour of a chosen vertex, tagged with its row's new id;
        # those that are chosen too, relabelled, are both directions of
        # each induced edge, so sorting their keys gives the CSR directly.
        nbrs = gather_neighbors(self._indptr, self._indices, chosen)
        src = np.repeat(np.arange(k, dtype=np.int64), self._degrees[chosen])
        pos = np.minimum(np.searchsorted(sorted_ids, nbrs), k - 1)
        hit = sorted_ids[pos] == nbrs
        keys = src[hit] * k + by_id[pos[hit]]
        keys.sort()
        indptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // k, minlength=k), out=indptr[1:])
        mapping = {old: new for new, old in enumerate(vlist)}
        return Graph.from_csr(self._labels[chosen], indptr, keys % k), mapping

    def is_connected(self) -> bool:
        """Whether the graph is connected (the empty graph counts as connected)."""
        n = self.num_vertices
        if n <= 1:
            return True
        seen = np.zeros(n, dtype=bool)
        seen[0] = True
        count = 1
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self.neighbors(u).tolist():
                if not seen[v]:
                    seen[v] = True
                    count += 1
                    stack.append(v)
        return count == n

    def normalized_adjacency(self) -> np.ndarray:
        """Dense GCN propagation matrix ``D^-1/2 (A + I) D^-1/2`` (Eq. 3).

        Only intended for query graphs (tens of vertices); raises for
        graphs above 4096 vertices to prevent accidental dense blowups.
        """
        n = self.num_vertices
        if n > 4096:
            raise InvalidGraphError(
                f"normalized_adjacency is dense-only (n={n} > 4096)"
            )
        a_tilde = np.eye(n)
        if self._indices.size:
            src = np.repeat(np.arange(n, dtype=np.int64), self._degrees)
            a_tilde[src, self._indices] = 1.0
        inv_sqrt = 1.0 / np.sqrt(a_tilde.sum(axis=1))
        return a_tilde * inv_sqrt[:, None] * inv_sqrt[None, :]

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.num_vertices

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.num_vertices))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # The CSR pair is canonical, so it fully determines the edge set.
        return (
            np.array_equal(self._labels, other._labels)
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash(
            (self._labels.tobytes(), self._indptr.tobytes(), self._indices.tobytes())
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Graph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|L|={self.num_labels})"
        )

    def memory_bytes(self, include_lazy_views: bool = True) -> int:
        """In-memory footprint of the graph payload (Table IV).

        Counts the canonical CSR buffers, labels/degrees, the label index,
        and — honestly — every lazily materialized view (frozenset
        neighbourhoods, the edge-list tuple) currently alive.  Pass
        ``include_lazy_views=False`` for the deterministic canonical
        payload alone (what space reports use, since the resident views
        depend on which consumers touched the graph first).
        """
        total = (
            self._labels.nbytes
            + self._degrees.nbytes
            + self._indptr.nbytes
            + self._indices.nbytes
        )
        total += sum(arr.nbytes for arr in self._label_index.values())
        if not include_lazy_views:
            return total
        if self._neighbor_sets is not None:
            total += sys.getsizeof(self._neighbor_sets)
            total += sum(
                sys.getsizeof(s) for s in self._neighbor_sets if s is not None
            )
        if self._edge_list is not None:
            total += sys.getsizeof(self._edge_list)
            total += sum(sys.getsizeof(pair) for pair in self._edge_list)
        return total
