"""The prepare-once / query-many :class:`Matcher` facade.

A production deployment answers many queries against **one** large data
graph, so :class:`Matcher` — the one composition of the filter → order →
enumerate pipeline (Algorithm 1) — binds the data-graph side once: the
data graph, its :class:`~repro.graphs.stats.GraphStats`, the resolved
components and (for the learned orderer) the loaded RL model are all
fixed at construction, and every subsequent call pays only per-query
work.

The phase split is explicit: :meth:`Matcher.plan` runs Phases (1)–(2)
and returns a frozen :class:`~repro.api.plan.QueryPlan`;
:meth:`Matcher.execute` runs Phase (3) on a plan;
:meth:`Matcher.match` composes both;
:meth:`Matcher.match_many` batches a workload.  The first ``k``
embeddings of a query are a ``match_limit=k, record_matches=True`` run,
which stops the search at the ``k``-th match.  Components are named by
the keys of the matching layer's ``FILTERS`` / ``ORDERERS`` tables (or
passed as instances).
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections.abc import Iterable
from typing import TYPE_CHECKING

from repro.api.plan import QueryPlan
from repro.api.registry import (
    ORDERER_ALIASES,
    make_enumerator,
    make_filter,
    make_orderer,
)
from repro.errors import ModelError, RegistryError
from repro.graphs.graph import Graph
from repro.graphs.stats import GraphStats
from repro.matching.context import MatchingContext
from repro.matching.cost import estimate_order_cost
from repro.matching.engine import MatchResult
from repro.matching.enumeration import DEFAULT_TIME_LIMIT, EnumerationResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an api→service import
    from repro.service.cache import PlanCache

__all__ = ["Matcher"]


class Matcher:
    """Prepare-once / query-many subgraph matcher over one data graph.

    Parameters
    ----------
    data:
        The data graph every query matches against.
    filter / orderer:
        Names — keys of :data:`repro.matching.FILTERS` /
        :data:`repro.matching.ORDERERS`, plus ``"rlqvo"`` — or
        already-constructed component instances.  All names are
        validated here, at construction — an unknown name raises a
        :class:`~repro.errors.RegistryError` listing the valid choices.
        ``orderer="rl"`` (alias of ``"rlqvo"``) additionally needs
        ``model=``.
    enumerator:
        An already-configured
        :class:`~repro.matching.enumeration.Enumerator` to run Phase (3) on,
        or the one engine's name (nothing to select — the default).
    match_limit / time_limit / record_matches:
        Enumerator settings, used to build the engine when
        ``enumerator`` is not an instance (an instance keeps its own
        settings).  Defaults mirror the paper's caps (10^5 matches,
        500 s).
    stats:
        Precomputed :class:`GraphStats` of ``data`` to share across
        matchers; computed here (once) when omitted.
    model:
        Trained model for the learned orderer: a saved-model directory
        (as written by :func:`repro.core.save_model`), a
        ``PolicyNetwork``, or a ready ``RLQVOOrderer``.
    plan_cache / cache_scope:
        Optional :class:`~repro.service.cache.PlanCache`, which
        :meth:`plan_fingerprinted` needs and consults (and fills) by
        canonical fingerprint, and the first key component of this
        matcher's entries.  A cache needs a scope: the service uses the dataset
        name, which makes per-dataset invalidation addressable.  Caches
        may be shared across matchers: keys are the scope plus the
        filter/orderer names.  :meth:`plan` never reads the cache.

    Thread safety
    -------------
    A constructed ``Matcher`` may be shared across threads: planning and
    execution write only per-call state, the plan cache is internally
    locked, and the components in ``FILTERS`` / ``ORDERERS`` keep no
    per-query mutable state (lazily derived graph views are built-once
    and race-benign under CPython).  Concurrent calls are bit-identical
    to the same calls run serially; ``tests/api/test_concurrency.py``
    pins this contract.
    """

    def __init__(
        self,
        data: Graph,
        filter="gql",
        orderer="ri",
        enumerator="iterative",
        *,
        match_limit: int | None = 100_000,
        time_limit: float | None = DEFAULT_TIME_LIMIT,
        record_matches: bool = False,
        stats: GraphStats | None = None,
        model=None,
        plan_cache: "PlanCache | None" = None,
        cache_scope: str | None = None,
    ):
        self.data = data
        # Amortized data-graph-side state: statistics are computed once
        # here and shared by every plan/match call (and across matchers,
        # when the caller passes them in).
        self.stats = stats if stats is not None else GraphStats(self.data)
        self.candidate_filter = make_filter(filter)
        self.orderer = self._resolve_orderer(orderer, model)
        self.enumerator = make_enumerator(
            enumerator,
            match_limit=match_limit,
            time_limit=time_limit,
            record_matches=record_matches,
        )
        self.filter_name = getattr(
            self.candidate_filter, "name", type(self.candidate_filter).__name__
        )
        self.orderer_name = getattr(
            self.orderer, "name", type(self.orderer).__name__
        )
        self.enumerator_name = self.enumerator.name
        if plan_cache is not None and cache_scope is None:
            raise ValueError("a plan_cache needs a cache_scope")
        self.plan_cache = plan_cache
        self.cache_scope = cache_scope

    def _resolve_orderer(self, orderer, model):
        """Resolve the orderer spec, loading the RL model when needed."""
        # "rl" is the learned orderer's alias and takes the model path.
        if (
            isinstance(orderer, str)
            and ORDERER_ALIASES.get(orderer, orderer) == "rlqvo"
        ):
            from repro.core.orderer import RLQVOOrderer

            if isinstance(model, RLQVOOrderer):
                if model.feature_builder.data is not self.data:
                    raise ModelError(
                        "the supplied RLQVOOrderer is bound to a different "
                        "data graph"
                    )
                return model
            if model is None:
                raise RegistryError(
                    "orderer 'rlqvo' needs a trained model: pass "
                    "model=<saved-model dir | PolicyNetwork | RLQVOOrderer>"
                )
            policy = model
            if isinstance(model, (str, os.PathLike)):
                from repro.core.model_io import load_model

                policy = load_model(model)
            from repro.core.features import FeatureBuilder

            builder = FeatureBuilder(self.data, policy.config, self.stats)
            return make_orderer(orderer, policy=policy, feature_builder=builder)
        if model is not None:
            raise RegistryError(
                "model= is only meaningful with orderer='rlqvo' (or 'rl')"
            )
        return make_orderer(orderer)

    # ------------------------------------------------------------------
    # Phases (1)-(2): planning
    # ------------------------------------------------------------------
    def _cache_key(self, fingerprint: str) -> tuple[str, str, str, str]:
        """Cache key: scope, plan-shaping component names, fingerprint.

        The scope stays first: :meth:`PlanCache.invalidate_scope`
        matches on ``key[0]``.
        """
        return (
            self.cache_scope,
            self.filter_name,
            self.orderer_name,
            fingerprint,
        )

    def plan(self, query: Graph) -> QueryPlan:
        """Run filtering and ordering; return a frozen :class:`QueryPlan`.

        Phase accounting: the per-edge candidate index is built here,
        exactly once per query, and billed to ``filter_time`` like every
        other Phase (1) artifact; a query with an empty candidate set
        short-circuits to the identity order without running (or
        billing) the ordering phase.
        """
        t0 = time.perf_counter()
        candidates = self.candidate_filter.filter(query, self.data, self.stats)
        context = MatchingContext(query, self.data, candidates, self.stats)
        if candidates.has_empty():
            # No embedding can exist; the identity order stands in for
            # the never-computed φ and the ordering phase is billed 0.
            t1 = time.perf_counter()
            return QueryPlan(
                query=query,
                order=tuple(range(query.num_vertices)),
                candidate_counts=tuple(candidates.sizes()),
                filter_name=self.filter_name,
                orderer_name=self.orderer_name,
                enumerator_name=self.enumerator_name,
                filter_time=t1 - t0,
                order_time=0.0,
                build_time=t1 - t0,
                estimated_cost=0.0,
                candidate_space_bytes=0,
                context=context,
            )
        # Phase (1) artifact: built once here, billed to filter_time,
        # then shared by the orderer and the enumerator.
        context.ensure_space()
        t1 = time.perf_counter()
        order = self.orderer.order_context(context)
        t2 = time.perf_counter()
        estimated = estimate_order_cost(query, self.data, candidates, order)
        return QueryPlan(
            query=query,
            order=tuple(int(u) for u in order),
            candidate_counts=tuple(candidates.sizes()),
            filter_name=self.filter_name,
            orderer_name=self.orderer_name,
            enumerator_name=self.enumerator_name,
            filter_time=t1 - t0,
            order_time=t2 - t1,
            build_time=time.perf_counter() - t0,
            estimated_cost=estimated,
            candidate_space_bytes=context.space.memory_bytes(),
            context=context,
        )

    def plan_fingerprinted(
        self, query: Graph, fingerprint: str
    ) -> tuple[QueryPlan, bool]:
        """:meth:`plan` through the cache; returns ``(plan, cache_hit)``.

        ``query`` is a canonical form and ``fingerprint`` its canonical
        fingerprint (the service canonicalizes at the request boundary,
        see :func:`~repro.graphs.canonical.canonical_form`).  A cache
        hit additionally requires the stored query to equal ``query``
        exactly, so reuse is always sound.  The matcher needs a
        :attr:`plan_cache`.
        """
        key = self._cache_key(fingerprint)
        cached = self.plan_cache.get(key, query)
        if cached is not None:
            return cached, True
        plan = self.plan(query)
        # Seed the lazy fingerprint so the cache never pays a second
        # canonicalization.
        plan.__dict__["fingerprint"] = fingerprint
        self.plan_cache.put(key, plan)
        return plan, False

    def replan(self, plan: QueryPlan, orderer) -> QueryPlan:
        """Re-run Phase (2) on a plan's Phase (1) artifacts.

        ``orderer`` is an orderer name or instance.  The returned plan
        shares the original's context (candidates and candidate space
        are *not* rebuilt), records the new orderer's name, order timing
        and cost estimate, and keeps the original filter timing — the
        cheap way to compare orderings on one query.
        """
        orderer = make_orderer(orderer)
        if not plan.matchable:
            return plan
        context = self._context(plan)
        t0 = time.perf_counter()
        order = orderer.order_context(context)
        order_time = time.perf_counter() - t0
        estimated = estimate_order_cost(
            plan.query, self.data, context.candidates, order
        )
        return dataclasses.replace(
            plan,
            order=tuple(int(u) for u in order),
            orderer_name=getattr(orderer, "name", type(orderer).__name__),
            order_time=order_time,
            estimated_cost=estimated,
        )

    # ------------------------------------------------------------------
    # Phase (3): execution
    # ------------------------------------------------------------------
    def _context(self, plan: QueryPlan) -> MatchingContext:
        """The plan's context, checked against this matcher's data graph."""
        # Identity is the fast path; fall back to content equality so
        # plans cached by one matcher execute on another matcher over an
        # equal data graph that shares its cache and scope.
        if plan.context.data is not self.data and plan.context.data != self.data:
            raise ModelError("plan was built against a different data graph")
        return plan.context

    def execute(self, plan: QueryPlan, enumerator=None) -> MatchResult:
        """Run the enumeration phase of a plan; a full :class:`MatchResult`.

        The result's filter/order timings are the ones recorded on the
        plan, so repeated executions of one plan keep reporting the true
        (once-paid) planning cost.  ``enumerator`` (an instance)
        replaces this matcher's engine for one execution — how the
        service applies per-request match/time limits to shared cached
        plans without re-planning.
        """
        engine = self.enumerator if enumerator is None else make_enumerator(enumerator)
        context = self._context(plan)
        if context.candidates.has_empty():
            empty = EnumerationResult(0, 0, 0.0, False, False, ())
            return MatchResult(plan.order, empty, plan.filter_time, plan.order_time)
        enumeration = engine.run_context(context, plan.order)
        return MatchResult(plan.order, enumeration, plan.filter_time, plan.order_time)

    def match(self, query: Graph) -> MatchResult:
        """Full pipeline on one query: :meth:`plan` then :meth:`execute`."""
        return self.execute(self.plan(query))

    def match_many(self, queries: Iterable[Graph]) -> list[MatchResult]:
        """Answer a workload, reusing this matcher's prepared state.

        Data-graph-side setup (stats, label indices, loaded model) was
        paid at construction; each query here pays only its own
        filter/order/enumerate work.  Results are ordered like the
        input.
        """
        return [self.match(query) for query in queries]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Matcher(data={self.data!r}, filter={self.filter_name!r}, "
            f"orderer={self.orderer_name!r}, enumerator={self.enumerator_name!r})"
        )
