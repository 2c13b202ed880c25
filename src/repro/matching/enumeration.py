"""Backtracking enumeration procedure (Algorithm 2, Def. II.5–II.6).

Given a query graph, data graph, candidate sets and a matching order
``φ``, :class:`Enumerator` extends partial embeddings position by
position.  At position ``i`` it maps ``u = φ[i]`` to each vertex of the
local candidate set (Line 6): candidates of ``u`` adjacent to the images
of all backward neighbours ``N^φ_+(u)`` and not already used
(injectivity).

One loop implements the procedure: :func:`~repro.matching.enumeration_batch.walk`,
an explicit-stack DFS with per-depth cursors into sorted candidate
lists, whose local candidates are intersected from the
:class:`~repro.matching.candidate_space.CandidateSpace` flat per-edge
index once per backward image key and memoized for the run.  It uses
O(1) Python stack frames regardless of query depth, so deep path
queries enumerate fine.  There is one engine and nothing to choose:
:meth:`Enumerator.run_context` calls the walk, which counts, records
and stops at the limits itself.  When the order's three deepest levels
are *prefix-bound* — every backward neighbour of positions ``n-2`` and
``n-1`` lies above position ``n-3`` — the walk calls the bulk frontier
on a frame at ``n-3`` that is wide enough to pay for it; the frontier
tiles the two candidate lists the frame's rows and leaves share over
its parents in chunked numpy batches.  Any other order is walked per
node throughout.  A caller that wants only the first ``k`` embeddings
runs with ``match_limit=k`` (and ``record_matches=True``): the search
stops at the ``k``-th match.

Every path visits candidates in ascending vertex order, so match
sequences and ``#enum`` are bit-identical (including under
``match_limit`` truncation) whichever frames go to the frontier.  The
differential suites pin that — every frame taken, none taken, and the
default — against a plain one-frame-per-vertex recursion over raw
adjacency — Algorithm 2 as written, independent of the candidate space —
which lives under ``tests/`` (``tests/recursive_oracle.py``); nothing in
``src/`` can select it.

Shared Phase (1) artifacts (candidates + the per-edge index) travel in a
:class:`~repro.matching.context.MatchingContext`: callers that run many
enumerations over one instance (the ``Matcher`` facade, reward rollouts,
the optimal-order sweep) build the context once and call
:meth:`Enumerator.run_context`, so the candidate space is constructed
exactly once per instance instead of being re-derived behind a private
LRU cache.  The positional :meth:`Enumerator.run` signature remains as a
convenience that wraps a fresh context.

``#enum`` counts the extension steps of the procedure (the recursive
calls of Algorithm 2) — the paper's order-quality metric (Def. II.6).
The enumerator honours a match limit (the paper caps runs at the first
10^5 matches), an ``#enum`` budget and a wall-clock deadline
(:data:`DEFAULT_TIME_LIMIT`, the paper's 500 s cap, unless overridden),
reporting them in the result.  The budget is the deterministic form of
the paper's cap: a run that would need more than ``enum_limit`` steps
stops with exactly ``enum_limit`` counted, whatever the host's speed, so
every count decided under it is a function of the inputs alone.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import EnumerationError
from repro.graphs.graph import Graph
from repro.graphs.validation import check_order
from repro.matching.block import MatchBlock
from repro.matching.candidates import CandidateSets
from repro.matching.context import MatchingContext
from repro.matching.enumeration_batch import walk

__all__ = [
    "DEFAULT_TIME_LIMIT",
    "EnumerationResult",
    "Enumerator",
]

#: The paper's per-query wall-clock cap (Sec. IV-A): runs that exceed it
#: report ``timed_out`` instead of hanging.  Pass ``time_limit=None``
#: explicitly for an unlimited run.
DEFAULT_TIME_LIMIT: float = 500.0


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of one enumeration run.

    Attributes
    ----------
    num_matches:
        Number of embeddings found (possibly truncated by the limits).
    num_enumerations:
        ``#enum`` — extension steps performed (Def. II.6).
    elapsed:
        Wall-clock seconds spent inside the procedure.
    timed_out:
        Whether the run stopped before the search space was exhausted
        because it hit the deadline or needed more than ``enum_limit``
        steps (then ``num_enumerations == enum_limit``).
    limit_reached:
        Whether the match limit fired.
    matches:
        The embeddings, recorded only when requested.  Stored as one
        read-only ``(k, n)`` int64 array — a
        :class:`~repro.matching.block.MatchBlock`, which whatever the
        constructor is given (an array, or a tuple/list of per-match
        sequences) is turned into — and read as the immutable sequence
        of tuples indexed by *query vertex id* it stands for (``m[u]``
        is the image of ``u``): those tuples are derived from the array
        on first use, not stored beside it.
    """

    num_matches: int
    num_enumerations: int
    elapsed: float
    timed_out: bool
    limit_reached: bool
    matches: MatchBlock = field(default=())

    def __post_init__(self) -> None:
        object.__setattr__(self, "matches", MatchBlock(self.matches))

    @property
    def complete(self) -> bool:
        """Whether the whole search space was explored."""
        return not (self.timed_out or self.limit_reached)


class Enumerator:
    """Backtracking enumerator with limits.

    Parameters
    ----------
    match_limit:
        Stop after this many embeddings (``None`` = find all).
    time_limit:
        Wall-clock budget in seconds; defaults to the paper's 500 s cap
        (:data:`DEFAULT_TIME_LIMIT`), ``None`` = unlimited.  Checked
        every :data:`~repro.matching.enumeration_batch.CHECK_EVERY`
        steps, so where it stops a run depends on the host.
    enum_limit:
        ``#enum`` budget (``None`` = unlimited): a run that would take
        step ``enum_limit + 1`` stops before it, reporting ``timed_out``
        with ``num_enumerations == enum_limit`` — the same on every host.
        A run that finishes within the budget is complete.
    record_matches:
        Whether to materialize embeddings (off for pure counting runs).

    There is no engine to select: the one explicit-stack DFS decides per
    frame, from the frame's own width, whether to call the bulk frontier
    on it (see :mod:`repro.matching.enumeration_batch`).  :attr:`name` is
    what plans and registries call that engine.
    """

    #: The engine's name, recorded on plans as provenance.
    name = "iterative"

    def __init__(
        self,
        match_limit: int | None = 100_000,
        time_limit: float | None = DEFAULT_TIME_LIMIT,
        enum_limit: int | None = None,
        record_matches: bool = False,
    ):
        if match_limit is not None and match_limit < 1:
            raise EnumerationError("match_limit must be >= 1 or None")
        if time_limit is not None and time_limit <= 0:
            raise EnumerationError("time_limit must be positive or None")
        if enum_limit is not None and (
            not isinstance(enum_limit, int)
            or isinstance(enum_limit, bool)
            or enum_limit < 1
        ):
            raise EnumerationError("enum_limit must be a positive int or None")
        self.match_limit = match_limit
        self.time_limit = time_limit
        self.enum_limit = enum_limit
        self.record_matches = record_matches

    def run(
        self,
        query: Graph,
        data: Graph,
        candidates: CandidateSets,
        order: Sequence[int],
    ) -> EnumerationResult:
        """Enumerate embeddings of ``query`` in ``data`` along ``order``.

        Convenience wrapper over :meth:`run_context` that builds a fresh
        :class:`MatchingContext` (and therefore a fresh candidate space)
        for this single run.  Callers that enumerate the same instance
        repeatedly should build the context once themselves.
        """
        if candidates.num_query_vertices != query.num_vertices:
            raise EnumerationError("candidate sets do not cover the query")
        return self.run_context(MatchingContext(query, data, candidates), order)

    @staticmethod
    def _prepare_order(
        context: MatchingContext, order: Sequence[int]
    ) -> tuple[list[int], list[list[int]]]:
        """Validate ``order`` and compute backward neighbours by position."""
        query = context.query
        order = [int(u) for u in order]
        check_order(query, order, connected=False)
        position = {u: i for i, u in enumerate(order)}
        backward: list[list[int]] = []
        for i, u in enumerate(order):
            backward.append(
                sorted(position[int(v)] for v in query.neighbors(u) if position[int(v)] < i)
            )
        return order, backward

    def run_context(
        self, context: MatchingContext, order: Sequence[int]
    ) -> EnumerationResult:
        """Enumerate along ``order`` using shared Phase (1) artifacts."""
        start_time = time.perf_counter()
        order, backward = self._prepare_order(context, order)
        if not order:
            # The empty query has exactly one (empty) embedding; like any
            # other run, it is materialized only on request.
            matches = ((),) if self.record_matches else ()
            return EnumerationResult(1, 1, 0.0, False, False, matches)

        deadline = (
            start_time + self.time_limit if self.time_limit is not None else None
        )
        found, enum, timed_out, limited, matches = walk(
            context,
            order,
            backward,
            self.match_limit,
            self.enum_limit,
            deadline,
            self.record_matches,
        )
        return EnumerationResult(
            num_matches=found,
            num_enumerations=enum,
            elapsed=time.perf_counter() - start_time,
            timed_out=timed_out,
            limit_reached=limited,
            matches=matches,
        )
