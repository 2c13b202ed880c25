"""The serving-grade entry point: one :class:`MatchService`, many clients.

Where :class:`~repro.api.matcher.Matcher` makes one *data graph*
prepare-once/query-many, ``MatchService`` makes the *deployment* so:
one long-lived object fronts a multi-dataset catalog, a shared
canonical-fingerprint plan cache, and a thread pool for concurrent
request execution.  Clients speak :class:`~repro.service.requests.
MatchRequest` / :class:`~repro.service.requests.MatchResponse` — plain
data, JSON-serializable, routable.

Canonicalization at the boundary
--------------------------------
Every incoming query is canonically relabeled
(:func:`repro.graphs.canonical.canonical_form`) before planning, and
every outgoing order/embedding is translated back into the client's
vertex numbering.  Two consequences:

* all members of one isomorphism class collapse onto one plan-cache
  entry — the recurring-workload case NeuSO-style systems amortize —
  and a cache hit skips Phases (1)–(2) entirely, reusing the live
  candidate arrays and per-edge index of the cached plan;
* results are *deterministic per isomorphism class*: warm and cold
  paths run the identical canonical plan, so cache hits are
  bit-identical to cold planning on match sequences and ``#enum``
  (pinned by property test over generated isomorphs).

Per-request ``match_limit`` / ``time_limit`` / orderer overrides never
fork the cached plan — limits apply through a derived enumerator at
execution time, and orderer overrides cache under their own key.
"""

from __future__ import annotations

import math
import threading
import time
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.errors import CanonicalizationError, ReproError
from repro.graphs.canonical import CanonicalForm, canonical_form
from repro.graphs.graph import Graph
from repro.matching.enumeration import Enumerator
from repro.service.cache import DEFAULT_CACHE_BYTES, CacheStats, PlanCache
from repro.service.catalog import DatasetCatalog
from repro.service.requests import UNSET, MatchRequest, MatchResponse

__all__ = ["LatencyRing", "MatchService", "ServiceStats", "STATS_SCHEMA_VERSION"]

#: Latency ring-buffer size for the percentile snapshot.
LATENCY_WINDOW = 8192

#: Default thread-pool width for :meth:`MatchService.submit_many`.
DEFAULT_MAX_WORKERS = 4

#: Version of the :meth:`ServiceStats.to_dict` / ``/stats`` payload.
#: Bumped whenever keys change shape or meaning, so consumers
#: (dashboards, scrapers) can refuse payloads they don't understand
#: instead of mis-parsing them.
#: v2: added ``schema`` itself and the ``scheduler`` block.
#: v3: the ``scheduler`` block grew the execution tier surface —
#: ``executor``, ``recovered``, the observed-cost feedback state,
#: ``procpool`` and ``durable`` liveness snapshots.
#: v4: the per-partition enumeration-time map left with partitioned
#: matching.
#: v5: the cache's store-hit counter, the plan-store block and the
#: server's two stream counters left with the sqlite plan store and the
#: streaming route.
#: v6: ``scheduler.recovered`` and ``scheduler.durable`` left with the
#: durable admission journal.
#: v7: the scheduler block's observed-cost feedback state and each
#: tenant's summed in-flight plan cost left with the per-bucket cost
#: correction and the tenant cost budget.
STATS_SCHEMA_VERSION = 7


class LatencyRing:
    """Fixed-capacity ring over the most recent request latencies.

    A long-lived server must not grow per-request state without bound,
    so percentile tracking keeps exactly the last ``capacity`` samples —
    the buffer is capped, appends past it overwrite the oldest sample in
    place, and the total observation count keeps counting.  Not a
    sampling reservoir on purpose: latency percentiles should reflect
    *recent* traffic, and a sliding window is also the cheaper invariant
    to test (``tests/server/test_latency_ring.py`` pins the bound).

    Examples
    --------
    >>> ring = LatencyRing(capacity=4)
    >>> for v in [5.0, 1.0, 2.0, 3.0, 4.0]:
    ...     ring.append(v)
    >>> ring.count, len(ring)            # 5 seen, 4 retained
    (5, 4)
    >>> sorted(ring.window())            # the 5.0 was overwritten
    [1.0, 2.0, 3.0, 4.0]
    """

    __slots__ = ("_buffer", "_capacity", "_next", "_count")

    def __init__(self, capacity: int = LATENCY_WINDOW):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = int(capacity)
        self._buffer: list[float] = []
        self._next = 0
        self._count = 0

    def append(self, value: float) -> None:
        """Record one sample, evicting the oldest once at capacity."""
        if len(self._buffer) < self._capacity:
            self._buffer.append(float(value))
        else:
            self._buffer[self._next] = float(value)
        self._next = (self._next + 1) % self._capacity
        self._count += 1

    def window(self) -> list[float]:
        """A copy of the retained samples (unordered)."""
        return list(self._buffer)

    @property
    def capacity(self) -> int:
        """Maximum number of retained samples."""
        return self._capacity

    @property
    def count(self) -> int:
        """Total samples ever appended (retained or evicted)."""
        return self._count

    def __len__(self) -> int:
        return len(self._buffer)


@dataclass(frozen=True)
class ServiceStats:
    """Point-in-time operational snapshot of a :class:`MatchService`.

    Per-phase totals count work actually performed: planning time is
    added only on cache misses (hits re-use, they don't re-pay), while
    enumeration time accrues on every served request.  Latency
    percentiles are computed over the bounded :class:`LatencyRing`
    sliding window (the most recent :data:`LATENCY_WINDOW` requests).
    ``scheduler`` carries the
    :class:`~repro.service.scheduler.SchedulerStats` payload (queue
    depth, admissions/rejections/expiries/degrades,
    per-tenant accounting) when a scheduler is attached; ``schema`` is
    :data:`STATS_SCHEMA_VERSION`, so payload consumers can refuse
    shapes they don't understand.
    """

    requests: int
    errors: int
    cache: CacheStats
    filter_time_s: float
    order_time_s: float
    enum_time_s: float
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float = 0.0
    scheduler: dict | None = None
    schema: int = STATS_SCHEMA_VERSION

    @property
    def cache_hit_rate(self) -> float:
        """Plan-cache hit rate over every lookup so far."""
        return self.cache.hit_rate

    def to_dict(self) -> dict:
        """JSON-compatible payload (the ``GET /stats`` body)."""
        return {
            "schema": int(self.schema),
            "requests": int(self.requests),
            "errors": int(self.errors),
            "cache": self.cache.to_dict(),
            "filter_time_s": float(self.filter_time_s),
            "order_time_s": float(self.order_time_s),
            "enum_time_s": float(self.enum_time_s),
            "latency_p50_s": float(self.latency_p50_s),
            "latency_p95_s": float(self.latency_p95_s),
            "latency_p99_s": float(self.latency_p99_s),
            "scheduler": dict(self.scheduler) if self.scheduler is not None else None,
        }


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty):
    the smallest value with at least ``q`` of the sample at or below it."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


class MatchService:
    """Concurrent multi-dataset subgraph-matching service.

    Parameters
    ----------
    catalog:
        What to serve, fixed for the service's lifetime: ``None`` (every
        dataset in the :mod:`repro.datasets` registry), a list of
        registry names, or a mapping from name to ``Graph`` /
        :class:`~repro.service.catalog.CatalogEntry`.
    cache_bytes:
        Plan-cache byte budget.
    scheduler:
        Optional cost-aware admission tier
        (:mod:`repro.service.scheduler`): ``True`` for the default
        :class:`~repro.service.scheduler.SchedulerConfig`, or a config
        instance.  When attached, :meth:`submit_scheduled` admits
        through the bounded priority queue and :meth:`submit_many`
        routes through it; :meth:`submit` stays the direct path (and is
        what the scheduler's workers themselves execute through).

    Examples
    --------
    >>> from repro.service import MatchService, MatchRequest
    >>> from repro.graphs import erdos_renyi, extract_query
    >>> import numpy as np
    >>> data = erdos_renyi(150, 450, 3, seed=11)
    >>> service = MatchService(catalog={"tiny": data})
    >>> query = extract_query(data, 4, np.random.default_rng(2))
    >>> cold = service.submit(MatchRequest("tiny", query))
    >>> warm = service.submit(MatchRequest("tiny", query))
    >>> warm.cache_hit and not cold.cache_hit
    True
    >>> (warm.num_matches, warm.num_enumerations) == (
    ...     cold.num_matches, cold.num_enumerations)
    True
    """

    def __init__(
        self,
        catalog=None,
        *,
        cache_bytes: int = DEFAULT_CACHE_BYTES,
        scheduler=None,
    ):
        self.plan_cache = PlanCache(cache_bytes)
        self.catalog = DatasetCatalog(catalog, plan_cache=self.plan_cache)
        self._lock = threading.Lock()
        self._requests = 0
        self._errors = 0
        self._filter_time = 0.0
        self._order_time = 0.0
        self._enum_time = 0.0
        self._latencies = LatencyRing(LATENCY_WINDOW)
        self.scheduler = None
        self.procpool = None
        if scheduler is not None and scheduler is not False:
            # Local import: the scheduler module imports from
            # repro.service.requests, and keeping the dependency edge
            # one-way at import time avoids a cycle.
            from repro.service.scheduler import CostAwareScheduler, SchedulerConfig

            config = SchedulerConfig() if scheduler is True else scheduler
            if config.executor == "process":
                # The pool must exist before the scheduler: its workers
                # dispatch to it from their first pop.  Each worker plans
                # the canonical query itself; planning is deterministic,
                # so its results are bit-identical to this process's.
                from repro.procpool import ProcessPool, catalog_spec

                self.procpool = ProcessPool(
                    catalog_spec(self.catalog), workers=config.process_workers
                )
            self.scheduler = CostAwareScheduler(self, config)

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def _derived_enumerator(
        self, base: Enumerator, request: MatchRequest, record: bool
    ) -> Enumerator | None:
        """Per-request engine honouring the request's overrides.

        Returns ``None`` when the dataset's configured enumerator
        already fits — the common case, which keeps cache-hit requests
        allocation-free on the planning side.
        """
        match_limit = (
            base.match_limit if request.match_limit is UNSET else request.match_limit
        )
        time_limit = (
            base.time_limit if request.time_limit is UNSET else request.time_limit
        )
        if (
            match_limit == base.match_limit
            and time_limit == base.time_limit
            and record == base.record_matches
        ):
            return None
        return Enumerator(
            match_limit=match_limit,
            time_limit=time_limit,
            record_matches=record,
            check_every=base.check_every,
        )

    @staticmethod
    def _plan_canonical(matcher, query: Graph):
        """Canonicalize and plan; ``(cform, plan, cache_hit)``.

        The budget-exceeded fallback serves the query as-is under an
        identity mapping with caching off — correct results, no cache
        entry, empty fingerprint.
        """
        try:
            cform = canonical_form(query)
        except CanonicalizationError:
            identity = tuple(range(query.num_vertices))
            cform = CanonicalForm(
                graph=query, order=identity, mapping=identity, fingerprint=""
            )
            return cform, matcher.plan(query), False
        plan, cache_hit = matcher.plan_fingerprinted(cform.graph, cform.fingerprint)
        return cform, plan, cache_hit

    def submit(self, request: MatchRequest) -> MatchResponse:
        """Serve one request; raises :class:`~repro.errors.ReproError`
        subclasses on invalid requests (unknown dataset/orderer, bad
        limits).

        The full path: resolve the dataset's matcher, canonicalize the
        query, plan through the shared cache (hits skip Phases (1)–(2)),
        execute under the request's limits, and translate order and
        embeddings back into the client's vertex numbering — the
        embeddings all at once, as one column gather over the recorded
        :class:`~repro.matching.block.MatchBlock`.

        Queries are canonicalized exactly, which bounds them at
        :data:`~repro.graphs.canonical.MAX_CANONICAL_VERTICES` vertices
        — far above any Table III workload; larger graphs are data
        graphs and belong in the catalog, not in a request.  A query so
        symmetric that the canonical labeling exhausts its search budget
        is served *uncached* instead (bounded fallback, empty
        fingerprint on the response) — a hostile query degrades its own
        caching, never a worker thread.
        """
        t_start = time.perf_counter()
        matcher = self.catalog.matcher(request.dataset, request.orderer)
        cform, plan, cache_hit = self._plan_canonical(matcher, request.query)

        engine = self._derived_enumerator(
            matcher.enumerator, request, request.record_matches
        )
        outcome = matcher.execute(plan, enumerator=engine).enumeration
        enum_time = outcome.elapsed
        # The id remap result[u] = match[mapping[u]], for every
        # embedding of the block at once.
        matches = outcome.matches.gather(cform.mapping)
        total_time = time.perf_counter() - t_start
        self._meter(cache_hit, plan.filter_time, plan.order_time, enum_time, total_time)
        return MatchResponse(
            dataset=request.dataset,
            # cform's fingerprint, not the plan's lazy property: on the
            # budget-exceeded fallback the latter would re-run the
            # failed canonicalization.
            fingerprint=cform.fingerprint,
            cache_hit=cache_hit,
            order=tuple(cform.order[u] for u in plan.order),
            num_matches=outcome.num_matches,
            num_enumerations=outcome.num_enumerations,
            timed_out=outcome.timed_out,
            limit_reached=outcome.limit_reached,
            matches=matches,
            filter_time=plan.filter_time,
            order_time=plan.order_time,
            enum_time=enum_time,
            total_time=total_time,
            tag=request.tag,
        )

    def _record_error(self) -> None:
        """Count one captured request failure (stats only)."""
        with self._lock:
            self._errors += 1

    def _meter(self, cache_hit, filter_time, order_time, enum_time, total_time) -> None:
        """Count one served request — the one stats update every serving
        path (direct, worker process) goes through.

        Planning seconds are added only when the request actually
        planned (its cache lookup missed); enumeration seconds and the
        latency ring always.
        """
        with self._lock:
            self._requests += 1
            if not cache_hit:
                self._filter_time += filter_time
                self._order_time += order_time
            self._enum_time += enum_time
            self._latencies.append(total_time)

    def _record_remote(self, response: MatchResponse) -> None:
        """Meter one response served by a worker *process*.

        The worker's private service counted the request in its own
        stats, which die with it — the parent re-records the response
        here with the same semantics as :meth:`submit`.
        """
        self._meter(
            response.cache_hit, response.filter_time, response.order_time,
            response.enum_time, response.total_time,
        )

    def submit_scheduled(self, request: MatchRequest):
        """Admit one request through the cost-aware scheduler.

        Returns a :class:`concurrent.futures.Future` resolving to the
        served :class:`MatchResponse` (with ``queue_time_s`` /
        ``attempts`` / ``degraded`` filled in) or raising the failure.
        Admission itself raises synchronously: a structured
        :class:`~repro.service.requests.ServiceError` with
        ``code="rejected"`` on backpressure (full queue, tenant at its
        in-flight cap), validation errors for unknown names.  Requires
        a scheduler (``MatchService(..., scheduler=...)``).

        Scheduling changes *when* the request runs, never *what it
        returns*: execution goes through the unmodified :meth:`submit`
        path, so results are bit-identical to a direct call.
        """
        if self.scheduler is None:
            raise ReproError(
                "no scheduler attached; construct the service with "
                "MatchService(..., scheduler=SchedulerConfig(...))"
            )
        return self.scheduler.submit(request)

    def submit_many(
        self,
        requests: Iterable[MatchRequest],
        max_workers: int = DEFAULT_MAX_WORKERS,
    ) -> list[MatchResponse]:
        """Serve a batch concurrently; responses in request order.

        Without a scheduler this fans out over a thread pool hammering
        the shared (documented thread-safe) matchers; with one attached
        (``MatchService(..., scheduler=...)``) every request is
        admitted through the cost-aware priority queue instead, so a
        batch inherits deadline/in-flight-cap enforcement and
        cheap-first ordering.  Either way results are bit-identical to serial
        :meth:`submit` calls on the accepted requests.  A request's
        :class:`~repro.errors.ReproError` — including scheduler
        rejections and deadline expiries — becomes an error response
        carrying the stable code, so one bad request cannot sink a
        batch.
        """
        requests = list(requests)
        if not requests:
            return []
        if self.scheduler is not None:
            return self._submit_many_scheduled(requests)
        workers = max(1, min(max_workers, len(requests)))

        def serve(request: MatchRequest) -> MatchResponse:
            try:
                return self.submit(request)
            except ReproError as exc:
                self._record_error()
                return MatchResponse.failure(request, exc)

        if workers == 1:
            return [serve(request) for request in requests]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(serve, requests))

    def _submit_many_scheduled(
        self, requests: list[MatchRequest]
    ) -> list[MatchResponse]:
        """Batch path through the scheduler; responses in request order."""
        slots: list = []
        for request in requests:
            try:
                slots.append(self.scheduler.submit(request))
            except ReproError as exc:
                self._record_error()
                slots.append(MatchResponse.failure(request, exc))
        responses: list[MatchResponse] = []
        for request, slot in zip(requests, slots):
            if isinstance(slot, MatchResponse):
                responses.append(slot)
                continue
            try:
                responses.append(slot.result())
            except ReproError as exc:
                self._record_error()
                responses.append(MatchResponse.failure(request, exc))
        return responses

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def invalidate(self, dataset: str | None = None) -> int:
        """Explicitly drop cached plans: one dataset's, or all.

        Call when the world behind a dataset name changes out of band
        (graph rebuilt, model retrained).  Returns the number of plans
        dropped.
        """
        if dataset is None:
            return self.plan_cache.clear()
        self.catalog.entry(dataset)  # raises registry-style on unknown names
        return self.plan_cache.invalidate_scope(dataset)

    def stats(self) -> ServiceStats:
        """A consistent :class:`ServiceStats` snapshot."""
        cache = self.plan_cache.stats()
        scheduler_stats = (
            self.scheduler.stats().to_dict() if self.scheduler is not None else None
        )
        with self._lock:
            window = sorted(self._latencies.window())
            return ServiceStats(
                requests=self._requests,
                errors=self._errors,
                cache=cache,
                filter_time_s=self._filter_time,
                order_time_s=self._order_time,
                enum_time_s=self._enum_time,
                latency_p50_s=_percentile(window, 0.50),
                latency_p95_s=_percentile(window, 0.95),
                latency_p99_s=_percentile(window, 0.99),
                scheduler=scheduler_stats,
            )

    def health(self) -> dict:
        """Liveness snapshot — what ``GET /healthz`` serves.

        ``status`` is ``"ok"`` unless the process pool is unrecoverably
        down (``"down"``, mapped to HTTP 503).  ``executor`` reports the
        execution tier: its kind (``"inline"`` without a scheduler,
        else the scheduler's executor), scheduler worker count and
        queue depth, and — under ``executor="process"`` — the pool's
        worker liveness (alive/dead/busy/respawns).
        """
        executor: dict = {
            "kind": "inline",
            "workers": 0,
            "queue_depth": 0,
            "queue_capacity": 0,
            "process_pool": None,
        }
        status = "ok"
        if self.scheduler is not None:
            executor["kind"] = self.scheduler.config.executor
            executor["workers"] = self.scheduler.config.workers
            executor["queue_depth"] = len(self.scheduler._queue)
            executor["queue_capacity"] = self.scheduler._queue.capacity
        if self.procpool is not None:
            pool_health = self.procpool.health()
            executor["process_pool"] = pool_health
            if pool_health["down"]:
                status = "down"
        return {
            "status": status,
            "datasets": list(self.catalog.names()),
            "executor": executor,
        }

    def close(self) -> None:
        """Release background resources (scheduler, process pool).

        Queued scheduled work drains gracefully first (the scheduler
        shuts down before the process pool — its workers may still be
        blocked on pool futures).  Idempotent; the service remains
        usable for direct :meth:`submit` calls afterwards, but
        scheduled admission is permanently closed.
        """
        if self.scheduler is not None:
            self.scheduler.shutdown()
        if self.procpool is not None:
            self.procpool.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MatchService(datasets={len(self.catalog)}, "
            f"cached_plans={len(self.plan_cache)})"
        )

