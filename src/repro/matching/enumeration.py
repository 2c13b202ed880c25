"""Backtracking enumeration procedure (Algorithm 2, Def. II.5–II.6).

Given a query graph, data graph, candidate sets and a matching order
``φ``, :class:`Enumerator` extends partial embeddings position by
position.  At position ``i`` it maps ``u = φ[i]`` to each vertex of the
local candidate set (Line 6): candidates of ``u`` adjacent to the images
of all backward neighbours ``N^φ_+(u)`` and not already used
(injectivity).

One explicit-stack DFS implements the procedure —
:func:`~repro.matching.enumeration_iter.walk_prefixes`, per-depth
cursors into sorted numpy candidate arrays, with local candidates
computed by sorted-array intersection against the
:class:`~repro.matching.candidate_space.CandidateSpace` flat per-edge
index.  It uses O(1) Python stack frames regardless of query depth, so
deep path queries enumerate fine.  There is one engine and nothing to
choose: a batch run (:meth:`Enumerator.run_context`) drains the walk
through :func:`~repro.matching.enumeration_batch.enumerate_batch`, which
lets the walk hand a frame at position ``n-3`` to the bulk frontier —
chunked numpy batches over the three deepest levels — exactly when the
frame is wide enough to pay for the call, and a stream
(:meth:`Enumerator.stream_context`) rides the same walk per node, so a
consumer pays only up to its last pull.

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
the optimal-order sweep, profiling) build the context once and call
:meth:`Enumerator.run_context`, so the candidate space is constructed
exactly once per instance instead of being re-derived behind a private
LRU cache.  The positional :meth:`Enumerator.run` signature remains as a
convenience that wraps a fresh context.

``#enum`` counts the extension steps of the procedure (the recursive
calls of Algorithm 2) — the paper's order-quality metric (Def. II.6).
The enumerator honours a match limit (the paper caps runs at the first
10^5 matches) and a wall-clock deadline
(:data:`DEFAULT_TIME_LIMIT`, the paper's 500 s cap, unless overridden),
reporting both in the result.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.errors import EnumerationError
from repro.graphs.graph import Graph
from repro.graphs.validation import check_order
from repro.matching.block import MatchBlock
from repro.matching.candidates import CandidateSets
from repro.matching.context import MatchingContext
from repro.matching.enumeration_batch import enumerate_batch
from repro.matching.enumeration_iter import EnumerationCounters, enumerate_lazy
from repro.matching.kernels import ScratchBuffers

__all__ = [
    "DEFAULT_TIME_LIMIT",
    "EnumerationResult",
    "Enumerator",
    "MatchStream",
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
        Whether the deadline fired before the search space was exhausted.
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


class MatchStream:
    """Lazy embedding stream over the engine's lazy generator.

    Iterating yields embeddings one at a time, as tuples indexed by query
    vertex (``m[u]`` is the image of ``u``) — the same tuples, in the
    same sequence, that a batch run with ``record_matches=True`` would
    collect.  The search state lives in a suspended generator frame, so a
    consumer that stops after ``k`` matches pays only the enumeration
    explored up to the ``k``-th match; with ``match_limit=k`` the stream
    stops itself after the ``k``-th yield, bit-identical in ``#enum`` to
    a batch run under the same limit.

    Progress counters (:attr:`num_matches`, :attr:`num_enumerations`,
    :attr:`timed_out`, :attr:`limit_reached`, :attr:`elapsed`) are live
    after every yield *and* after :meth:`close`, wherever it lands
    between pulls (the DFS generator refreshes them on every exit from
    its frame); :meth:`result` packages them as an
    :class:`EnumerationResult` once the stream is finished (exhausted,
    limited, timed out or explicitly :meth:`close`-d).  A stream closed
    before its first pull reports the root step
    (``num_enumerations == 1``) without having searched — the same
    accounting the batch engine charges before its first extension.
    The wall-clock deadline is absolute, so time the consumer spends
    between pulls counts against it — a streaming budget, not a
    pure-search budget.
    """

    def __init__(
        self,
        context: MatchingContext,
        order: list[int],
        backward: list[list[int]],
        match_limit: int | None,
        time_limit: float | None,
        check_every: int,
    ):
        self._match_limit = match_limit
        self._start = time.perf_counter()
        self._elapsed = 0.0
        self._counters = EnumerationCounters()
        self._found = 0
        self._limit_reached = False
        self._finished = False
        if not order:
            # The empty query has exactly one (empty) embedding; mirror
            # the batch engine's num_enumerations == 1 accounting.
            self._gen = iter(((),))
            self._counters.num_enumerations = 1
        else:
            deadline = self._start + time_limit if time_limit is not None else None
            self._gen = enumerate_lazy(
                context, order, backward, deadline, check_every, self._counters
            )
            # Pre-charge the root step: the generator body only runs on
            # the first pull, so a stream closed before then would
            # otherwise report #enum == 0 — an accounting no batch run
            # can produce (the root "call" always counts).
            self._counters.num_enumerations = 1

    @classmethod
    def empty(cls, context: MatchingContext) -> "MatchStream":
        """An already-finished stream for unmatchable queries.

        Mirrors the engine's empty-candidate short-circuit: the search
        never starts, so the stream yields nothing and reports zero
        enumerations.
        """
        stream = cls(context, [], [], None, None, 1)
        stream._counters.num_enumerations = 0
        stream._finish()
        return stream

    def __iter__(self) -> "MatchStream":
        return self

    def __next__(self) -> tuple[int, ...]:
        if self._finished:
            raise StopIteration
        try:
            match = next(self._gen)
        except StopIteration:
            self._finish()
            raise
        self._found += 1
        self._elapsed = time.perf_counter() - self._start
        if self._match_limit is not None and self._found >= self._match_limit:
            self._limit_reached = True
            self._finish()
        return match

    def _finish(self) -> None:
        if not self._finished:
            self._finished = True
            self._elapsed = time.perf_counter() - self._start
            close = getattr(self._gen, "close", None)
            if close is not None:
                close()

    def close(self) -> None:
        """Stop the search early and release the generator frame."""
        self._finish()

    @property
    def num_matches(self) -> int:
        """Embeddings yielded so far."""
        return self._found

    @property
    def num_enumerations(self) -> int:
        """``#enum`` explored up to the last yield (Def. II.6)."""
        return self._counters.num_enumerations

    @property
    def timed_out(self) -> bool:
        """Whether the wall-clock deadline fired during the search."""
        return self._counters.timed_out

    @property
    def limit_reached(self) -> bool:
        """Whether the match limit stopped the stream."""
        return self._limit_reached

    @property
    def exhausted(self) -> bool:
        """Whether the stream is finished (by any cause)."""
        return self._finished

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds from stream creation to the last pull."""
        return self._elapsed

    def result(self) -> EnumerationResult:
        """The stream's outcome as a batch-shaped result (no matches
        payload — the consumer already received them one by one)."""
        return EnumerationResult(
            num_matches=self._found,
            num_enumerations=self._counters.num_enumerations,
            elapsed=self._elapsed,
            timed_out=self._counters.timed_out,
            limit_reached=self._limit_reached,
        )


class Enumerator:
    """Backtracking enumerator with limits.

    Parameters
    ----------
    match_limit:
        Stop after this many embeddings (``None`` = find all).
    time_limit:
        Wall-clock budget in seconds; defaults to the paper's 500 s cap
        (:data:`DEFAULT_TIME_LIMIT`), ``None`` = unlimited.
    record_matches:
        Whether to materialize embeddings (off for pure counting runs).
    check_every:
        Deadline check cadence, in extension steps.

    There is no engine to select: the one explicit-stack DFS decides per
    frame, from the frame's own width, whether the bulk frontier expands
    it (see :mod:`repro.matching.enumeration_batch`).  :attr:`name` is
    what plans and registries call that engine.
    """

    #: The engine's registry name, recorded on plans as provenance.
    name = "iterative"

    def __init__(
        self,
        match_limit: int | None = 100_000,
        time_limit: float | None = DEFAULT_TIME_LIMIT,
        record_matches: bool = False,
        check_every: int = 2048,
    ):
        if match_limit is not None and match_limit < 1:
            raise EnumerationError("match_limit must be >= 1 or None")
        if time_limit is not None and time_limit <= 0:
            raise EnumerationError("time_limit must be positive or None")
        self.match_limit = match_limit
        self.time_limit = time_limit
        self.record_matches = record_matches
        self.check_every = max(1, check_every)
        # Per-thread ScratchBuffers for the batch driver:
        # reused across synchronous run_context calls on one thread
        # (streams always bind fresh scratch — a suspended stream holds
        # its buffers across pulls, so sharing would corrupt it).  This
        # keeps the Matcher thread-safety contract: threads never share
        # scratch, and the buffers carry no cross-query state.
        self._thread_state = threading.local()

    @property
    def peak_scratch_bytes(self) -> int:
        """High-water batch-scratch footprint on the calling thread.

        Covers the batch driver's per-thread
        :class:`~repro.matching.kernels.ScratchBuffers` (per-depth
        candidate arrays plus the frontier's named batch buffers, which
        exist only once a frame was wide enough to be taken); 0 until a
        run on this thread needed any.  Monotone across a thread's
        lifetime — buffers grow geometrically and never shrink.
        """
        scratch = getattr(self._thread_state, "scratch", None)
        return 0 if scratch is None else scratch.peak_nbytes

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
        # One ScratchBuffers per thread, rebound per query (geometric
        # growth, never shrinks).  Safe because the batch driver drains
        # the walk before returning — no user code runs while the
        # scratch is live.
        scratch = getattr(self._thread_state, "scratch", None)
        if scratch is None:
            scratch = ScratchBuffers([])
            self._thread_state.scratch = scratch
        found, enum, timed_out, limited, matches = enumerate_batch(
            context,
            order,
            backward,
            self.match_limit,
            deadline,
            self.check_every,
            self.record_matches,
            scratch,
        )
        return EnumerationResult(
            num_matches=found,
            num_enumerations=enum,
            elapsed=time.perf_counter() - start_time,
            timed_out=timed_out,
            limit_reached=limited,
            matches=matches,
        )

    def stream_context(
        self,
        context: MatchingContext,
        order: Sequence[int],
        match_limit: int | None = "default",
    ) -> MatchStream:
        """Lazily enumerate along ``order``: a :class:`MatchStream`.

        The stream yields embeddings in exactly the sequence a batch
        :meth:`run_context` with ``record_matches=True`` would collect,
        driving the same DFS, but suspends between matches — so a
        consumer that stops after ``k`` matches never pays for the rest
        of the search (which is why a stream never hands a frame to the
        bulk frontier: that computes whole subtrees ahead of the pulls).
        ``match_limit`` overrides the enumerator's own limit for this
        stream (pass ``None`` for find-all); the enumerator's
        ``time_limit`` applies as an absolute wall-clock deadline from
        stream creation.
        """
        if match_limit == "default":
            match_limit = self.match_limit
        if match_limit is not None and match_limit < 1:
            raise EnumerationError("match_limit must be >= 1 or None")
        order, backward = self._prepare_order(context, order)
        return MatchStream(
            context, order, backward, match_limit, self.time_limit, self.check_every
        )
