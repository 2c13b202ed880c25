"""Neighborhood label frequency filter (NLF).

On top of LDF, ``v`` stays in ``C(u)`` only if for every label ``l`` the
number of ``l``-labeled neighbours of ``v`` is at least the number of
``l``-labeled neighbours of ``u``.  Any embedding maps ``N(u)`` injectively
into ``N(v)`` preserving labels, so the rule is complete.

Each required ``(label, count)`` is one call to
:meth:`GraphStats.with_label_neighbors` — a sorted-array intersection of
the LDF survivors with the data vertices having at least ``count``
neighbours of that label, read from an index built once per data graph.
No per-candidate Counter comparisons, no per-label count array.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidates import CandidateFilter, CandidateSets
from repro.matching.filters.ldf import ldf_candidates

__all__ = ["NLFFilter"]


class NLFFilter(CandidateFilter):
    """Neighborhood-label-frequency filter."""

    name = "nlf"

    def filter(
        self, query: Graph, data: Graph, stats: GraphStats | None = None
    ) -> CandidateSets:
        stats = self._require_stats(data, stats)

        arrays: list[np.ndarray] = []
        for u in query.vertices():
            survivors = ldf_candidates(query, data, u)
            # Label requirements of N(u), vectorized over the neighbours.
            need_labels, need_counts = np.unique(
                query.labels[query.neighbors(u)], return_counts=True
            )
            for lab, cnt in zip(need_labels.tolist(), need_counts.tolist()):
                survivors = stats.with_label_neighbors(survivors, lab, cnt)
            arrays.append(survivors)
        return CandidateSets.from_arrays(arrays)
