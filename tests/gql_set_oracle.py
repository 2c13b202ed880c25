"""The set-based GraphQL filter every array-native change is compared to.

This is ``repro.matching.filters.gql.GQLFilter`` as it stood before it
was rewritten over arrays, moved here verbatim: a ``Counter`` profile per
data vertex, ``set[int]`` candidate sets, and one dict index +
Hopcroft–Karp call per ``(u, v)`` per refinement round.  It shares no
code with the production filter beyond :func:`has_semi_perfect_matching`
— no CSR gather, no label-count table, no counting shortcut — which is
what makes it an independent oracle: the production filter must return
``np.array_equal`` candidate arrays for every query vertex, including
under a truncated ``refinement_rounds``, because the sweep schedule
(vertices in id order, a vertex's removals applied after its own sweep
and visible to later vertices of the same round) is part of the
contract.

Test-only by design: it is per-candidate Python and 3–50x slower.
``tests/conftest.py`` puts this directory on ``sys.path``, so any test
module can ``from gql_set_oracle import GQLSetOracle``.
"""

from __future__ import annotations

from collections import Counter

from repro.graphs.graph import Graph
from repro.matching.bipartite import has_semi_perfect_matching
from repro.matching.candidates import CandidateSets


def closed_profile(graph: Graph, v: int) -> tuple[int, ...]:
    """GQL profile of ``v``: sorted labels of ``v`` and its neighbours."""
    return tuple(sorted([graph.label(v)] + graph.neighbor_labels(v)))


def _is_sub_multiset(small: Counter[int], big: Counter[int]) -> bool:
    return all(big.get(lab, 0) >= cnt for lab, cnt in small.items())


class GQLSetOracle:
    """Drop-in for ``GQLFilter`` on the ``filter`` surface."""

    name = "gql"

    def __init__(self, refinement_rounds: int = 3):
        self.refinement_rounds = refinement_rounds

    def filter(self, query: Graph, data: Graph, stats=None) -> CandidateSets:
        query_profiles = [Counter(closed_profile(query, u)) for u in query.vertices()]

        candidate_sets: list[set[int]] = []
        for u in query.vertices():
            lab, deg = query.label(u), query.degree(u)
            profile_u = query_profiles[u]
            survivors = {
                int(v)
                for v in data.vertices_with_label(lab)
                if data.degree(int(v)) >= deg
                and _is_sub_multiset(profile_u, Counter(closed_profile(data, int(v))))
            }
            candidate_sets.append(survivors)

        for _ in range(self.refinement_rounds):
            changed = self._refine_once(query, data, candidate_sets)
            if not changed:
                break
        return CandidateSets(candidate_sets)

    def _refine_once(
        self, query: Graph, data: Graph, candidate_sets: list[set[int]]
    ) -> bool:
        """One sweep of global refinement; returns whether anything changed."""
        changed = False
        for u in query.vertices():
            query_nbrs = [int(x) for x in query.neighbors(u)]
            if not query_nbrs:
                continue
            removals = []
            for v in candidate_sets[u]:
                if not self._semi_perfect(query_nbrs, data, v, candidate_sets):
                    removals.append(v)
            if removals:
                candidate_sets[u].difference_update(removals)
                changed = True
        return changed

    @staticmethod
    def _semi_perfect(
        query_nbrs: list[int],
        data: Graph,
        v: int,
        candidate_sets: list[set[int]],
    ) -> bool:
        data_nbrs = [int(x) for x in data.neighbors(v)]
        index = {w: i for i, w in enumerate(data_nbrs)}
        adjacency = []
        for u_prime in query_nbrs:
            cand = candidate_sets[u_prime]
            row = [index[w] for w in data_nbrs if w in cand]
            if not row:
                return False
            adjacency.append(row)
        return has_semi_perfect_matching(adjacency, len(data_nbrs))
