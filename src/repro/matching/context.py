"""Shared per-(query, data) matching artifacts — the Phase (1) product.

The paper's framework (Algorithm 1) computes candidate sets once per
query and reuses them across ordering and enumeration.  This repo's
enumeration additionally relies on the :class:`CandidateSpace` per-edge
index; historically each enumerator rebuilt (or LRU-cached) that index
privately, which made "how many times was Phase (1) paid?" depend on
cache hits.  :class:`MatchingContext` makes the sharing explicit: it
bundles the query, the data graph, the candidate sets and the (lazily
or eagerly built) candidate space into one object that
:class:`~repro.api.matcher.Matcher`, the orderers, both enumeration
engines, the RL reward rollouts and the benchmark harness all pass
around.

``Matcher.plan`` builds the space exactly once, inside the filtering
phase (so it is billed to ``filter_time``, as the paper bills all
Phase (1) work); standalone callers that construct a context directly
get the space on first use of :attr:`MatchingContext.space`.

Concurrency: once built, a context is read-only — both enumeration
engines and the orderers treat the candidate arrays and the per-edge
index as immutable, which is what lets the service layer execute one
cached plan (one shared context) from many threads at once.  The only
mutation after construction is the lazy :attr:`MatchingContext.space`
build itself: two threads racing on first access may each build the
(identical, deterministic) index and one wins the single-assignment —
wasteful, never wrong.  Callers that interleave
:meth:`MatchingContext.release_space` with concurrent enumeration give
up that guarantee; long-lived cached plans should release only when
quiescent.
"""

from __future__ import annotations

from repro.errors import FilterError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.candidate_space import CandidateSpace
from repro.matching.candidates import CandidateSets

__all__ = ["MatchingContext"]


class MatchingContext:
    """One matching instance: query, data, candidates, shared space.

    Parameters
    ----------
    query / data:
        The matching instance.
    candidates:
        Complete candidate sets from any Phase (1) filter.
    stats:
        Optional precomputed :class:`GraphStats` of ``data`` (orderers
        use them; enumeration does not).
    """

    __slots__ = ("query", "data", "candidates", "stats", "_space")

    def __init__(
        self,
        query: Graph,
        data: Graph,
        candidates: CandidateSets,
        stats: GraphStats | None = None,
    ):
        if candidates.num_query_vertices != query.num_vertices:
            raise FilterError("candidate sets do not cover the query")
        self.query = query
        self.data = data
        self.candidates = candidates
        self.stats = stats
        self._space: CandidateSpace | None = None

    @property
    def space(self) -> CandidateSpace:
        """The per-edge candidate index, built on first access."""
        if self._space is None:
            self._space = CandidateSpace(self.query, self.data, self.candidates)
        return self._space

    @property
    def has_space(self) -> bool:
        """Whether the candidate space has been built yet."""
        return self._space is not None

    def ensure_space(self) -> CandidateSpace:
        """Build the candidate space now (Phase (1) billing point)."""
        return self.space

    def release_space(self) -> None:
        """Drop the built candidate space (it rebuilds on next access).

        Long-lived context caches (e.g. the RL trainer's per-query cache)
        call this once a burst of enumerations is done, so the dense
        position maps and flat buffers of many instances are never
        resident at once.
        """
        self._space = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MatchingContext(query={self.query!r}, data={self.data!r}, "
            f"space={'built' if self.has_space else 'pending'})"
        )
