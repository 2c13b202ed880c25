"""GraphQL candidate filter — local pruning + global refinement, over arrays.

This is the filter used by Hybrid (Sec. II-C) and therefore by RL-QVO.
It is Phase (1) of every ``filter="gql"`` plan, so it is written against
the data graph's CSR arrays; the per-candidate set-based formulation it
replaced lives on as the test oracle ``tests/gql_set_oracle.py`` and the
two must return equal candidate arrays.

**Local pruning.**  GraphQL keeps ``v`` in ``C(u)`` when the profile of
``u`` — the sorted label multiset of its *closed* neighbourhood — is a
sub-multiset of the profile of ``v``.  Every LDF survivor of ``u``
already carries ``L(u)``, so the two profiles agree on the extra
``L(u)`` each contributes and the test reduces to: for every label, ``v``
has at least as many neighbours of that label as ``u``.  That is exactly
NLF's rule, evaluated as one :meth:`GraphStats.with_label_neighbors`
intersection per required label.

**Global refinement.**  ``v`` stays in ``C(u)`` only while the bipartite
graph between ``N(u)`` and ``N(v)`` (edge iff ``v' ∈ C(u')``) has a
matching saturating ``N(u)``.  The sweep schedule is a contract, because
a truncated run (``refinement_rounds``) depends on it: query vertices are
swept in id order; a vertex's removals are applied after its own sweep
and are visible to the later vertices of the same round; at most
``refinement_rounds`` rounds run, and a round that changes nothing ends
the loop.  A verdict on ``(u, v)`` reads ``C(u')`` for ``u' ∈ N(u)``
only, so a vertex none of whose neighbours' sets changed since its last
sweep is skipped — re-sweeping it could not remove anything.

One sweep of ``u`` gathers the neighbour lists of all of ``C(u)`` from
the data CSR in one fancy index, tests them against the boolean
membership masks of every ``u' ∈ N(u)`` at once, and ``np.add.reduceat``
turns that into ``|N(v) ∩ C(u')|`` for all ``(v, u')``.

**When Hopcroft–Karp still runs.**  Candidates of differently-labeled
query vertices are disjoint, so the matching decomposes by label of
``u'``.  A zero count drops ``v``.  A label group of size ``g`` whose
ascending counts satisfy ``c[i] >= i + 1`` is matchable (take the groups'
vertices in that order: the i-th has at least ``i + 1`` neighbours and at
most ``i`` are taken) — for ``g = 1`` that is the non-zero test.  Only a
pair with no zero and some group failing that test is undecided, and only
those pairs go to :func:`has_semi_perfect_matching` — 98 of 42,436
verdicts over 200 yeast Q8/Q16 queries, 908 of 234,163 on citeseer.

Both steps only remove vertices that cannot take part in any embedding, so
completeness is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph, gather_neighbors
from repro.graphs.stats import GraphStats
from repro.matching.bipartite import has_semi_perfect_matching
from repro.matching.candidates import CandidateFilter, CandidateSets
from repro.matching.filters.ldf import ldf_candidates

__all__ = ["GQLFilter", "counts_guarantee_matching"]


def counts_guarantee_matching(counts: np.ndarray) -> np.ndarray:
    """Per column: do neighbour counts alone prove a saturating matching?

    ``counts[i, j]`` is the number of right-side neighbours of left vertex
    ``i`` in instance ``j``.  Sorted ascending down each column, ``c[i] >=
    i + 1`` lets a greedy pass give every left vertex a free neighbour.
    The test is sufficient, not necessary: ``False`` means undecided.
    """
    need = np.arange(1, counts.shape[0] + 1)[:, None]
    return (np.sort(counts, axis=0) >= need).all(axis=0)


class GQLFilter(CandidateFilter):
    """GraphQL profile filter with semi-perfect-matching refinement.

    Parameters
    ----------
    refinement_rounds:
        Maximum number of global-refinement sweeps (GraphQL uses a small
        constant; the fixpoint is usually reached in 2–3 rounds).

    One instance holds no per-call state and is shared by every thread of
    a :class:`~repro.api.Matcher`; scratch lives in :meth:`filter`'s frame
    (one ``|V(G)|``-byte membership mask per query vertex).
    """

    name = "gql"

    def __init__(self, refinement_rounds: int = 3):
        self.refinement_rounds = refinement_rounds

    def filter(
        self, query: Graph, data: Graph, stats: GraphStats | None = None
    ) -> CandidateSets:
        stats = self._require_stats(data, stats)
        labels = query.labels.tolist()

        # Per query vertex, hoisted out of the round loop: N(u) with
        # same-label neighbours adjacent, and the (lo, hi) row range of
        # every label group.
        rows: list[list[int]] = []
        groups: list[list[tuple[int, int]]] = []
        candidates: list[np.ndarray] = []
        for u in query.vertices():
            nbrs = sorted(query.neighbors(u).tolist(), key=labels.__getitem__)
            bounds = [
                i for i in range(len(nbrs))
                if i == 0 or labels[nbrs[i]] != labels[nbrs[i - 1]]
            ] + [len(nbrs)]
            rows.append(nbrs)
            groups.append(list(zip(bounds[:-1], bounds[1:])))
            survivors = ldf_candidates(query, data, u)
            for lo, hi in groups[u]:
                survivors = stats.with_label_neighbors(
                    survivors, labels[nbrs[lo]], hi - lo
                )
            candidates.append(survivors)

        if self.refinement_rounds > 0:
            self._refine(data, rows, groups, candidates)
        return CandidateSets.from_arrays(candidates)

    def _refine(
        self,
        data: Graph,
        rows: list[list[int]],
        groups: list[list[tuple[int, int]]],
        candidates: list[np.ndarray],
    ) -> None:
        """Global refinement in place, on the schedule the module docstring fixes."""
        member = np.zeros((len(rows), data.num_vertices), dtype=bool)
        for u, cand in enumerate(candidates):
            member[u, cand] = True
        row_index = [np.asarray(nbrs, dtype=np.intp)[:, None] for nbrs in rows]
        multi = [[(lo, hi) for lo, hi in grp if hi - lo > 1] for grp in groups]
        # stale[u]: some C(u'), u' in N(u), changed since u was last swept.
        stale = [bool(nbrs) for nbrs in rows]

        for _ in range(self.refinement_rounds):
            if not any(stale):
                break
            for u, cand in enumerate(candidates):
                if not stale[u]:
                    continue
                stale[u] = False
                if cand.size == 0:
                    continue
                nbr_lists = gather_neighbors(data.indptr, data.indices, cand)
                lens = data.degrees[cand]
                ends = lens.cumsum()
                starts = ends - lens
                hits = member[row_index[u], nbr_lists]
                counts = np.add.reduceat(hits, starts, axis=1, dtype=np.intp)
                keep = counts.all(axis=0)
                if multi[u]:
                    decided = keep.copy()
                    for lo, hi in multi[u]:
                        decided &= counts_guarantee_matching(counts[lo:hi])
                    for j in np.flatnonzero(keep & ~decided).tolist():
                        block = hits[:, starts[j] : ends[j]]
                        keep[j] = has_semi_perfect_matching(
                            [np.flatnonzero(row).tolist() for row in block],
                            block.shape[1],
                        )
                if not keep.all():
                    member[u, cand[~keep]] = False
                    candidates[u] = cand[keep]
                    for u_prime in rows[u]:
                        stale[u_prime] = True
