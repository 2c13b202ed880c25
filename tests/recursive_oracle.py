"""The recursive reference enumerator every differential suite compares to.

Algorithm 2 as written: one Python frame per query vertex, local
candidates by scanning the raw adjacency of the lowest-degree backward
image and filtering by candidate membership, the remaining adjacencies
and injectivity (Line 6).  It never touches
:class:`~repro.matching.candidate_space.CandidateSpace` or the walk's
candidate memo, which is what makes it an independent oracle for the production
engines: candidates are visited in ascending vertex order, so match
sequences and ``#enum`` (one per recursive call, root included) must
agree bit-for-bit — including under ``match_limit`` truncation.

Test-only by design: depth is bounded by ``sys.getrecursionlimit()`` and
there is no deadline.  ``tests/conftest.py`` puts this directory on
``sys.path``, so any test module can ``from recursive_oracle import
RecursiveOracle``.
"""

from __future__ import annotations

from repro.graphs.validation import check_order
from repro.matching import EnumerationResult


class _Stop(Exception):
    """Unwinds the recursion when the match limit fires."""


class RecursiveOracle:
    """Drop-in for ``Enumerator`` on the ``run`` / ``run_context`` surface."""

    def __init__(self, match_limit: int | None = 100_000, record_matches: bool = False):
        self.match_limit = match_limit
        self.record_matches = record_matches

    def run_context(self, context, order) -> EnumerationResult:
        return self.run(context.query, context.data, context.candidates, order)

    def run(self, query, data, candidates, order) -> EnumerationResult:
        order = [int(u) for u in order]
        check_order(query, order, connected=False)
        n = len(order)
        position = {u: i for i, u in enumerate(order)}
        backward = [
            sorted(position[int(v)] for v in query.neighbors(u) if position[int(v)] < i)
            for i, u in enumerate(order)
        ]
        cand_sets = [candidates.get(u) for u in order]
        cand_arrays = [candidates.array(u) for u in order]
        images = [-1] * n
        used: set[int] = set()
        matches: list[tuple[int, ...]] = []
        enum = found = 0
        limited = False

        def recurse(i: int) -> None:
            nonlocal enum, found, limited
            enum += 1
            if i == n:
                found += 1
                if self.record_matches:
                    by_query_vertex = [0] * n
                    for pos, u in enumerate(order):
                        by_query_vertex[u] = images[pos]
                    matches.append(tuple(by_query_vertex))
                if self.match_limit is not None and found >= self.match_limit:
                    limited = True
                    raise _Stop
                return
            imgs = [images[b] for b in backward[i]]
            if imgs:
                # Scan the neighbours of the lowest-degree backward image.
                pivot = min(imgs, key=data.degree)
                pool = data.neighbors(pivot)
                others = [w for w in imgs if w != pivot]
            else:
                pool, others = cand_arrays[i], []
            for v in pool:
                v = int(v)
                if v not in cand_sets[i] or v in used:
                    continue
                if any(v not in data.neighbor_set(w) for w in others):
                    continue
                images[i] = v
                used.add(v)
                recurse(i + 1)
                used.discard(v)

        try:
            recurse(0)
        except _Stop:
            pass
        return EnumerationResult(found, enum, 0.0, False, limited, tuple(matches))
