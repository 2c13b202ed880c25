"""Canonical forms of query graphs.

:func:`canonical_form` computes an *exact* label-aware canonical
labeling: every graph in an isomorphism class maps to the same canonical
vertex numbering, so the relabeled :attr:`CanonicalForm.graph` and the
stable :attr:`CanonicalForm.fingerprint` are equal **iff** the graphs are
isomorphic (up to hash collisions of the 128-bit digest).  This is what
the :mod:`repro.service` plan cache keys on: isomorphic queries — the
recurring-workload case — collapse onto one cache entry, and the
canonical relabeling is exact, so reusing a cached plan is sound, not
heuristic.  :func:`deduplicate_queries` keeps one query per fingerprint.

The canonical labeling is a certificate search: vertices are first
partitioned by 1-WL refinement of their labels (isomorphism-invariant,
so it only prunes), then a backtracking search places one vertex per
position, always choosing among the candidates with the minimal
``(colour, label, adjacency-to-placed)`` key, and keeps the
lexicographically smallest certificate.  Branch-and-bound against the
best certificate plus twin elimination (interchangeable same-label
vertices with identical neighbourhoods branch once) keep the search
near-linear on the irregular graphs query workloads are made of;
adversarially symmetric inputs (strongly regular graphs) can defeat
both prunes, so the search carries a node budget
(:data:`CANONICAL_SEARCH_BUDGET`) and raises
:class:`~repro.errors.CanonicalizationError` on exhaustion — a bounded,
fast failure the plan cache and the service catch to fall back to
uncached handling.  The answer is never wrong, and a hostile query can
never hang a worker.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

from repro.errors import CanonicalizationError, InvalidGraphError
from repro.graphs.graph import Graph

__all__ = [
    "CanonicalForm",
    "canonical_fingerprint",
    "canonical_form",
    "deduplicate_queries",
    "relabel_graph",
    "reset_canonicalization_cache",
]


def relabel_graph(graph: Graph, permutation: Sequence[int]) -> Graph:
    """The isomorphic copy of ``graph`` under ``permutation``.

    ``permutation[old]`` is the new id of vertex ``old``.  This is the
    one shared spelling of "same graph, different vertex numbering" —
    canonicalization applies its canonical mapping through it, and the
    isomorph-generating tests/benchmarks reuse it rather than re-deriving
    the label/edge shuffling.
    """
    n = graph.num_vertices
    permutation = [int(p) for p in permutation]
    if sorted(permutation) != list(range(n)):
        raise InvalidGraphError("relabel_graph needs a permutation of 0..n-1")
    labels = [0] * n
    for old, new in enumerate(permutation):
        labels[new] = graph.label(old)
    edges = [(permutation[u], permutation[v]) for u, v in graph.edges()]
    return Graph(labels, edges)


def deduplicate_queries(queries: Sequence[Graph]) -> list[Graph]:
    """One query per isomorphism class, in input order.

    Keyed on :func:`canonical_fingerprint`, so only isomorphic queries
    merge; a query whose canonical search exceeds its budget
    (:class:`~repro.errors.CanonicalizationError`) is always kept.
    """
    seen: set[str] = set()
    unique: list[Graph] = []
    for query in queries:
        try:
            key = canonical_fingerprint(query)
        except CanonicalizationError:
            unique.append(query)
            continue
        if key not in seen:
            seen.add(key)
            unique.append(query)
    return unique


# ---------------------------------------------------------------------------
# Exact canonical form (the plan-cache key)
# ---------------------------------------------------------------------------

#: Canonicalization is meant for query graphs; the certificate search is
#: quadratic-ish per node and would be misused on data graphs.
MAX_CANONICAL_VERTICES = 512

#: Certificate-search node budget.  Query-workload graphs discharge in
#: tens to hundreds of nodes; adversarially symmetric inputs (strongly
#: regular graphs) would otherwise search for hours, so the search stops
#: here with :class:`~repro.errors.CanonicalizationError` — a bounded,
#: fast failure that callers (the plan cache, the service) catch to fall
#: back to uncached handling instead of hanging a worker.
CANONICAL_SEARCH_BUDGET = 50_000


@dataclass(frozen=True)
class CanonicalForm:
    """A graph relabeled into its canonical vertex numbering.

    Attributes
    ----------
    graph:
        The canonically relabeled graph — equal (``==``) for every
        member of one isomorphism class.
    order:
        ``order[i]`` is the *original* vertex placed at canonical
        position ``i`` (canonical → original).
    mapping:
        ``mapping[u]`` is the canonical id of original vertex ``u``
        (original → canonical); the inverse permutation of ``order``.
    fingerprint:
        Stable blake2b hex digest of the certificate — equal iff the
        canonical graphs are equal, safe to use as a cache key across
        processes and sessions.
    """

    graph: Graph
    order: tuple[int, ...]
    mapping: tuple[int, ...]
    fingerprint: str

    def to_original(self, match: Sequence[int]) -> tuple[int, ...]:
        """Re-index a canonical-vertex-indexed tuple by original ids.

        This is how the service translates embeddings of the canonical
        query back into the client's vertex numbering:
        ``result[u] == match[mapping[u]]``.
        """
        return tuple(match[self.mapping[u]] for u in range(len(self.mapping)))


def _refined_colors(graph: Graph) -> list[int]:
    """Isomorphism-invariant vertex colours: labels, 1-WL refined.

    Colour ids are ranks of the sorted distinct signatures, so they are
    canonical across isomorphic graphs (the same vertex orbit gets the
    same id in every member of the class).
    """
    labels = graph.labels.tolist()
    distinct = sorted(set(labels))
    rank = {lab: i for i, lab in enumerate(distinct)}
    colors = [rank[lab] for lab in labels]
    num_classes = len(distinct)
    while True:
        signatures = [
            (
                colors[v],
                tuple(sorted(colors[w] for w in graph.neighbors(v).tolist())),
            )
            for v in graph.vertices()
        ]
        uniq = sorted(set(signatures))
        if len(uniq) == num_classes:
            # Refinement only ever splits classes, so an unchanged count
            # means the partition is stable.
            return colors
        index = {sig: i for i, sig in enumerate(uniq)}
        colors = [index[sig] for sig in signatures]
        num_classes = len(uniq)


def _canonical_order(graph: Graph, colors: list[int]) -> tuple[list[int], list[tuple]]:
    """Vertex placement minimizing the certificate; ``(order, cert)``.

    The certificate is the sequence, over canonical positions, of
    ``(colour, label, inverted-adjacency-bits-to-placed)`` — enough to
    reconstruct the labeled graph, compared lexicographically.  Bits are
    *inverted* (0 = adjacent) so vertices attached to the earliest
    placed prefix sort first, which keeps the search connected and the
    branching factor small.
    """
    n = graph.num_vertices
    labels = graph.labels.tolist()
    # Adjacency as bitmasks: bit w of adj[v] set iff e(v, w).
    adj = [0] * n
    for v in range(n):
        mask = 0
        for w in graph.neighbors(v).tolist():
            mask |= 1 << w
        adj[v] = mask

    best_cert: list[tuple] | None = None
    best_order: list[int] | None = None
    # placed_adj[v]: adjacency of v to the placed prefix, earliest
    # position most significant (appended placements shift left).
    placed_adj = [0] * n
    order: list[int] = []
    cert: list[tuple] = []
    nodes = 0

    def extend(unplaced: list[int]) -> None:
        nonlocal best_cert, best_order, nodes
        nodes += 1
        if nodes > CANONICAL_SEARCH_BUDGET:
            raise CanonicalizationError(
                f"canonical labeling exceeded its search budget "
                f"({CANONICAL_SEARCH_BUDGET} nodes) on a highly symmetric "
                f"{n}-vertex graph; handle it uncanonicalized"
            )
        if not unplaced:
            if best_cert is None or cert < best_cert:
                best_cert = list(cert)
                best_order = list(order)
            return
        k = len(order)
        full = (1 << k) - 1
        keys = {
            v: (colors[v], labels[v], full ^ placed_adj[v]) for v in unplaced
        }
        min_key = min(keys.values())
        # Branch and bound: when the prefix so far matches the incumbent
        # certificate, a worse next entry can never recover (comparison
        # is lexicographic); automorphic repeats of the incumbent tie all
        # the way down and die at the `cert < best_cert` gate above.
        if best_cert is not None and cert == best_cert[:k] and min_key > best_cert[k]:
            return
        # Twin elimination: same-label vertices with identical open (or
        # closed) neighbourhoods are exchanged by an automorphism that
        # fixes everything else, so one representative branches for the
        # whole class.
        candidates: list[int] = []
        seen_open: set[tuple] = set()
        seen_closed: set[tuple] = set()
        for v in sorted(v for v in unplaced if keys[v] == min_key):
            open_shape = (labels[v], adj[v])
            closed_shape = (labels[v], adj[v] | (1 << v))
            if open_shape in seen_open or closed_shape in seen_closed:
                continue
            seen_open.add(open_shape)
            seen_closed.add(closed_shape)
            candidates.append(v)
        for v in candidates:
            order.append(v)
            cert.append(min_key)
            rest = [w for w in unplaced if w != v]
            for w in rest:
                placed_adj[w] = (placed_adj[w] << 1) | ((adj[w] >> v) & 1)
            extend(rest)
            for w in rest:
                placed_adj[w] >>= 1
            cert.pop()
            order.pop()

    extend(list(range(n)))
    assert best_order is not None and best_cert is not None
    return best_order, best_cert


#: Bound on the known-uncanonicalizable negative caches below; on
#: overflow both are cleared (refilling costs one bounded burn each).
_NEGATIVE_CACHE_LIMIT = 1024

#: Graphs (exact) and WL classes (isomorphism-wide) whose certificate
#: search already exhausted its budget: repeats fail in microseconds
#: instead of re-burning the full budget — a hostile client cannot use
#: the same query (or relabelings of it) as a CPU amplifier.
_uncanonicalizable_graphs: dict[Graph, None] = {}
_uncanonicalizable_wl: set[tuple] = set()


def _wl_class(graph: Graph, colors: list[int]) -> tuple:
    """The 1-WL class of ``graph`` given its :func:`_refined_colors`: the
    multiset of (colour, label, neighbours' colours), equal on isomorphs."""
    labels = graph.labels.tolist()
    rows = []
    for v in graph.vertices():
        around = sorted(colors[w] for w in graph.neighbors(v).tolist())
        rows.append((colors[v], labels[v], tuple(around)))
    return tuple(sorted(rows))


def reset_canonicalization_cache() -> None:
    """Forget known-uncanonicalizable graphs (tests; budget changes)."""
    _uncanonicalizable_graphs.clear()
    _uncanonicalizable_wl.clear()


def canonical_form(graph: Graph) -> CanonicalForm:
    """Exact label-aware canonical relabeling of ``graph``.

    Every graph of one isomorphism class yields the same
    :attr:`CanonicalForm.graph` and :attr:`CanonicalForm.fingerprint`;
    :attr:`CanonicalForm.mapping` carries each original vertex to its
    canonical id.  Intended for *query* graphs (raises above
    :data:`MAX_CANONICAL_VERTICES` vertices).  Budget-exceeding
    (adversarially symmetric) graphs are negatively cached — by exact
    graph and by WL class — so repeats and relabelings of a known-bad
    query fail instantly rather than re-searching.

    Examples
    --------
    >>> a = Graph([1, 0, 0], [(0, 1), (1, 2)])
    >>> b = Graph([0, 0, 1], [(2, 1), (1, 0)])   # relabeled isomorph
    >>> canonical_form(a).graph == canonical_form(b).graph
    True
    >>> canonical_form(a).fingerprint == canonical_form(b).fingerprint
    True
    """
    n = graph.num_vertices
    if n > MAX_CANONICAL_VERTICES:
        raise InvalidGraphError(
            f"canonical_form is for query graphs (n={n} > "
            f"{MAX_CANONICAL_VERTICES})"
        )
    # WL over-approximates the bad class: a canonicalizable WL-twin of a
    # known-bad graph merely loses caching (served uncanonicalized),
    # never correctness.  The class is only built once some class is bad.
    colors = _refined_colors(graph)
    if graph in _uncanonicalizable_graphs or (
        _uncanonicalizable_wl and _wl_class(graph, colors) in _uncanonicalizable_wl
    ):
        raise CanonicalizationError(
            f"canonical labeling of this {n}-vertex graph is known to "
            "exceed the search budget; handle it uncanonicalized"
        )
    try:
        order, cert = _canonical_order(graph, colors)
    except CanonicalizationError:
        if (
            len(_uncanonicalizable_graphs) >= _NEGATIVE_CACHE_LIMIT
            or len(_uncanonicalizable_wl) >= _NEGATIVE_CACHE_LIMIT
        ):
            reset_canonicalization_cache()
        _uncanonicalizable_graphs[graph] = None
        _uncanonicalizable_wl.add(_wl_class(graph, colors))
        raise
    mapping = [0] * n
    for position, v in enumerate(order):
        mapping[v] = position
    payload = ";".join(
        f"{color},{label},{bits:x}" for color, label, bits in cert
    )
    digest = hashlib.blake2b(
        f"{n}|{payload}".encode(), digest_size=16
    ).hexdigest()
    return CanonicalForm(
        graph=relabel_graph(graph, mapping),
        order=tuple(order),
        mapping=tuple(mapping),
        fingerprint=digest,
    )


def canonical_fingerprint(graph: Graph) -> str:
    """Stable isomorphism-class hash: :attr:`CanonicalForm.fingerprint`."""
    return canonical_form(graph).fingerprint
