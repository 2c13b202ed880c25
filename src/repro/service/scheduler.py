"""Cost-aware admission and scheduling for :class:`MatchService`.

The paper's contribution is a cost model for *matching order*; this
module points the same signal at a second decision: *when and whether*
a request runs at all.  Between ``MatchService.submit*`` and the worker
pool sits a bounded priority queue ordered by

    (priority desc, deadline asc, estimated plan cost asc, FIFO seq)

so under an adversarial mix a cheap query never starves behind an
expensive one — the static left-deep cost estimate
(:attr:`QueryPlan.estimated_cost`) that Phase (2) already computes is
exactly the admission-time signal, and estimating it *warms the plan
cache*, so the worker's later ``submit`` is a cache hit rather than
duplicated planning work.

The scheduler changes **when** work runs, never **what it returns**:
an admitted request executes through the unmodified
:meth:`MatchService.submit` path under its exact limit envelope, so
match sequences and ``#enum`` stay bit-identical to a direct call
(pinned by ``tests/service/test_scheduler.py``).  The control surfaces
are all *around* execution:

* **backpressure** — a full queue or a tenant at its in-flight cap
  rejects at admission with a structured
  :class:`~repro.service.requests.ServiceError` (``code="rejected"``,
  ``retry_after_s`` set), which the HTTP tier maps to
  ``429 Too Many Requests`` + ``Retry-After``;
* **deadline enforcement** — a request still queued past its
  ``deadline_s`` fails fast (``code="deadline_expired"``) without ever
  occupying a worker; deadlines never cap *execution*;
* **retry-with-degrade** — when an attempt times out and the deadline
  still has room, one re-attempt runs with its ``match_limit``
  tightened to :data:`DEGRADE_MATCH_LIMIT`; the served response is
  marked ``degraded=True``, ``attempts=2`` and is bit-identical to a
  direct call with the same degraded envelope.

Admission lives in memory only: a killed process loses its queued
backlog, and clients retry as they would after any 5xx.

Examples
--------
>>> import numpy as np
>>> from repro.graphs import erdos_renyi, extract_query
>>> from repro.service import MatchRequest, MatchService, SchedulerConfig
>>> data = erdos_renyi(120, 360, 3, seed=7)
>>> service = MatchService(
...     catalog={"tiny": data}, scheduler=SchedulerConfig(workers=2))
>>> query = extract_query(data, 4, np.random.default_rng(0))
>>> future = service.submit_scheduled(
...     MatchRequest("tiny", query, tenant="acme", deadline_s=30.0))
>>> scheduled = future.result(timeout=60)
>>> direct = service.submit(MatchRequest("tiny", query))
>>> scheduled.ok and scheduled.attempts == 1
True
>>> (scheduled.num_matches, scheduled.num_enumerations) == (
...     direct.num_matches, direct.num_enumerations)
True
>>> service.close()
"""

from __future__ import annotations

import heapq
import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field, replace

from repro.service.requests import UNSET, MatchRequest, ServiceError

__all__ = [
    "AdmissionQueue",
    "CostAwareScheduler",
    "SchedulerConfig",
    "SchedulerStats",
    "entry_sort_key",
]


#: Accounting principal for requests with ``tenant=None``.
DEFAULT_TENANT = "default"

#: The degraded retry's match limit: a timed-out request is retried
#: once with its ``match_limit`` tightened to at most this.
DEGRADE_MATCH_LIMIT = 1000

#: Hint surfaced on rejections (HTTP ``Retry-After``), in seconds.
RETRY_AFTER_S = 1.0


@dataclass(frozen=True)
class SchedulerConfig:
    """Tuning knobs for :class:`CostAwareScheduler`.

    Every field is checked at construction; a bad value is a
    ``ValueError`` naming it.

    Attributes
    ----------
    workers:
        Scheduler worker threads draining the admission queue.
    queue_capacity:
        Bounded queue depth; admission past it is rejected (429).
    tenant_max_inflight:
        Per-tenant cap on admitted-but-unfinished requests; ``None``
        disables the cap.
    retry_degrade:
        Re-attempt a timed-out request once with its match limit
        tightened to :data:`DEGRADE_MATCH_LIMIT` (only when the deadline
        still has room).
    executor:
        Where admitted requests execute: ``"thread"`` (scheduler worker
        threads call :meth:`MatchService.submit` directly) or
        ``"process"`` (workers block on the service's
        :class:`~repro.procpool.pool.ProcessPool`, so CPU-bound
        enumeration scales with cores).  Results are bit-identical
        either way.
    process_workers:
        Worker-process count for ``executor="process"``.
    """

    workers: int = 2
    queue_capacity: int = 64
    tenant_max_inflight: int | None = None
    retry_degrade: bool = True
    executor: str = "thread"
    process_workers: int = 4

    def __post_init__(self) -> None:
        for name in ("workers", "queue_capacity", "process_workers"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(
                    f"SchedulerConfig.{name} must be at least 1, got {value!r}"
                )
        cap = self.tenant_max_inflight
        if cap is not None and cap < 1:
            raise ValueError(
                "SchedulerConfig.tenant_max_inflight must be at least 1 or "
                f"None, got {cap!r}"
            )
        if self.executor not in ("thread", "process"):
            raise ValueError(
                "SchedulerConfig.executor must be 'thread' or 'process', "
                f"got {self.executor!r}"
            )


def entry_sort_key(
    *,
    priority: int = 0,
    deadline: float | None = None,
    cost: float = 0.0,
    seq: int = 0,
) -> tuple:
    """The admission-queue ordering: deadline-then-cost within a class.

    Higher ``priority`` pops first; within one class the earlier
    absolute ``deadline`` wins (no deadline sorts last), then the
    cheaper estimated plan, then FIFO sequence as the total-order
    tiebreak.

    >>> cheap = entry_sort_key(cost=10.0, seq=1)
    >>> adversarial = entry_sort_key(cost=1e9, seq=0)
    >>> cheap < adversarial
    True
    >>> urgent = entry_sort_key(deadline=5.0, cost=1e9, seq=2)
    >>> urgent < cheap
    True
    """
    return (
        -int(priority),
        math.inf if deadline is None else float(deadline),
        float(cost),
        int(seq),
    )


@dataclass
class _Entry:
    """One admitted request waiting in (or draining from) the queue."""

    request: MatchRequest
    future: Future
    tenant: str
    cost: float  # the plan's static estimate (the queue orders by this)
    deadline: float | None  # absolute monotonic seconds, or None
    enqueued_at: float
    seq: int

    @property
    def sort_key(self) -> tuple:
        return entry_sort_key(
            priority=self.request.priority,
            deadline=self.deadline,
            cost=self.cost,
            seq=self.seq,
        )


class AdmissionQueue:
    """A bounded, thread-safe priority queue over :class:`_Entry`.

    ``push`` returns ``False`` instead of blocking when the queue is
    full — backpressure is the caller's structured rejection, never a
    hidden wait.  ``pop`` blocks until an entry is available or the
    queue is closed; after :meth:`close`, remaining entries still drain
    (pops keep succeeding) and ``pop`` returns ``None`` only once the
    queue is closed *and* empty.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self._capacity = int(capacity)
        self._heap: list[tuple[tuple, _Entry]] = []
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    @property
    def capacity(self) -> int:
        """Maximum number of queued entries."""
        return self._capacity

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has stopped admissions."""
        return self._closed

    def push(self, entry: _Entry) -> bool:
        """Admit one entry; ``False`` when the queue is full or closed."""
        with self._not_empty:
            if self._closed:
                return False
            if len(self._heap) >= self._capacity:
                return False
            heapq.heappush(self._heap, (entry.sort_key, entry))
            self._not_empty.notify()
            return True

    def pop(self, timeout: float | None = None) -> _Entry | None:
        """The best-ranked entry; ``None`` on closed-and-empty/timeout."""
        with self._not_empty:
            while not self._heap:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None
            return heapq.heappop(self._heap)[1]

    def close(self) -> None:
        """Stop admissions and wake blocked poppers."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)


#: The :class:`SchedulerStats` totals, each the sum of the same
#: :class:`_TenantAccount` field over every tenant.
_TOTALS = ("admitted", "rejected", "expired", "degraded", "completed", "errors")


class _TenantAccount:
    """Mutable per-tenant accounting (guarded by the scheduler lock)."""

    __slots__ = (
        "inflight",
        "admitted",
        "rejected",
        "expired",
        "degraded",
        "completed",
        "errors",
    )

    def __init__(self):
        self.inflight = 0
        self.admitted = 0
        self.rejected = 0
        self.expired = 0
        self.degraded = 0
        self.completed = 0
        self.errors = 0

    def to_dict(self) -> dict:
        return {
            "inflight": int(self.inflight),
            "admitted": int(self.admitted),
            "rejected": int(self.rejected),
            "expired": int(self.expired),
            "degraded": int(self.degraded),
            "completed": int(self.completed),
            "errors": int(self.errors),
        }


@dataclass(frozen=True)
class SchedulerStats:
    """Point-in-time snapshot of a :class:`CostAwareScheduler`.

    ``executor`` names the execution tier (``"thread"``/``"process"``);
    ``procpool`` carries the process pool's liveness snapshot when that
    tier is in play.
    """

    queue_depth: int
    queue_capacity: int
    workers: int
    admitted: int
    rejected: int
    expired: int
    degraded: int
    completed: int
    errors: int
    tenants: dict = field(default_factory=dict)
    executor: str = "thread"
    procpool: dict | None = None

    def to_dict(self) -> dict:
        """JSON-compatible payload (merged into ``/stats``)."""
        return {
            "queue_depth": int(self.queue_depth),
            "queue_capacity": int(self.queue_capacity),
            "workers": int(self.workers),
            "executor": str(self.executor),
            "admitted": int(self.admitted),
            "rejected": int(self.rejected),
            "expired": int(self.expired),
            "degraded": int(self.degraded),
            "completed": int(self.completed),
            "errors": int(self.errors),
            "tenants": {
                name: dict(stats)
                for name, stats in sorted(self.tenants.items())
            },
            "procpool": dict(self.procpool) if self.procpool is not None else None,
        }


class CostAwareScheduler:
    """The admission/scheduling tier between requests and workers.

    Parameters
    ----------
    service:
        The :class:`MatchService` whose ``submit`` actually executes
        admitted requests, and whose catalog and plan cache the
        admission cost estimate plans through.
    config:
        A :class:`SchedulerConfig`; ``None`` uses the defaults.
    """

    def __init__(self, service, config: SchedulerConfig | None = None):
        self._service = service
        self._config = config if config is not None else SchedulerConfig()
        self._queue = AdmissionQueue(self._config.queue_capacity)
        self._lock = threading.Lock()
        self._accounts: dict[str, _TenantAccount] = {}
        self._seq = 0
        self._closed = False
        if self._config.executor == "process":
            if getattr(service, "procpool", None) is None:
                raise ValueError(
                    "executor='process' requires the service to carry a "
                    "process pool (construct through MatchService(..., "
                    "scheduler=SchedulerConfig(executor='process')))"
                )
            self._execute = self._execute_process
        else:
            # Late-bound on purpose: tests (and instrumentation) replace
            # ``service.submit`` on the instance after construction.
            self._execute = self._execute_thread
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-sched-{i}",
                daemon=True,
            )
            for i in range(self._config.workers)
        ]
        for worker in self._workers:
            worker.start()

    @property
    def config(self) -> SchedulerConfig:
        """The immutable configuration this scheduler runs under."""
        return self._config

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _estimate(self, request: MatchRequest) -> float:
        """The admission cost signal for one request.

        Plans the (canonicalized) query through the service's shared
        cache — so estimation is also cache warming: the worker's later
        ``submit`` reuses the exact plan — and reads the static
        left-deep estimate Phase (2) recorded.  Manual/fallback orders
        carry ``nan``; those estimate as ``0.0`` (schedule eagerly
        rather than punish the unknown).  Raises registry/validation
        errors synchronously, so a bad dataset or orderer name never
        enters the queue.
        """
        matcher = self._service.catalog.matcher(request.dataset, request.orderer)
        _, plan, _ = self._service._plan_canonical(matcher, request.query)
        try:
            cost = float(plan.estimated_cost)
        except (TypeError, ValueError):
            return 0.0
        return cost if math.isfinite(cost) else 0.0

    def _execute_thread(self, request: MatchRequest):
        """Serve one admitted request on this worker thread (default)."""
        return self._service.submit(request)

    def _execute_process(self, request: MatchRequest):
        """Serve one admitted request through the process pool.

        The scheduler worker thread blocks on the worker process —
        exactly the point: *threads* hold admission slots cheaply while
        *processes* burn cores on Phase (3).  The parent meters the
        remote response into the service's stats, since the worker's
        private counters die with it.
        """
        response = self._service.procpool.execute(request)
        self._service._record_remote(response)
        return response

    def submit(self, request: MatchRequest) -> Future:
        """Admit one request; a ``Future`` resolving to its response.

        Raises :class:`ServiceError` (``code="rejected"``) immediately
        on backpressure — a full queue or a tenant at its in-flight cap
        — or once the scheduler is shut down, and plain validation
        errors for unknown names.  The future
        resolves to the served :class:`MatchResponse` (with
        ``queue_time_s``/``attempts``/``degraded`` filled in) or raises
        the failure: ``deadline_expired`` when the request died in the
        queue, or whatever execution raised.
        """
        config = self._config
        cost = self._estimate(request)
        tenant = request.tenant if request.tenant is not None else DEFAULT_TENANT
        now = time.monotonic()
        deadline = (
            None if request.deadline_s is None else now + float(request.deadline_s)
        )
        with self._lock:
            if self._closed:
                raise ServiceError("scheduler is shut down", code="rejected")
            account = self._accounts.setdefault(tenant, _TenantAccount())
            if (
                config.tenant_max_inflight is not None
                and account.inflight >= config.tenant_max_inflight
            ):
                account.rejected += 1
                raise ServiceError(
                    f"tenant {tenant!r} is at its in-flight cap "
                    f"({config.tenant_max_inflight})",
                    code="rejected",
                    retry_after_s=RETRY_AFTER_S,
                )
            account.inflight += 1
            account.admitted += 1
            seq = self._seq
            self._seq += 1
        entry = _Entry(
            request=request,
            future=Future(),
            tenant=tenant,
            cost=cost,
            deadline=deadline,
            enqueued_at=now,
            seq=seq,
        )
        if not self._queue.push(entry):
            self._unadmit(account)
            if self._queue.closed:
                # ``shutdown`` closed the queue after the check above.
                raise ServiceError("scheduler is shut down", code="rejected")
            raise ServiceError(
                f"admission queue full ({self._queue.capacity} requests)",
                code="rejected",
                retry_after_s=RETRY_AFTER_S,
            )
        return entry.future

    def _unadmit(self, account: _TenantAccount) -> None:
        """Turn one admission that never reached the queue into a rejection."""
        with self._lock:
            account.inflight -= 1
            account.admitted -= 1
            account.rejected += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _degraded_request(self, request: MatchRequest) -> MatchRequest | None:
        """The retry envelope for a timed-out request, or ``None``.

        The match limit only ever tightens: :data:`DEGRADE_MATCH_LIMIT`
        replaces the request's when the request's is unset, unlimited,
        or looser.  ``None`` means the degraded envelope is identical to
        the original — nothing to retry with.
        """
        current = request.match_limit
        if current is UNSET or current is None or current > DEGRADE_MATCH_LIMIT:
            return replace(request, match_limit=DEGRADE_MATCH_LIMIT)
        return None

    def _worker_loop(self) -> None:
        while True:
            entry = self._queue.pop()
            if entry is None:
                return
            self._serve(entry)

    def _serve(self, entry: _Entry) -> None:
        request = entry.request
        if not entry.future.set_running_or_notify_cancel():
            self._release(entry)  # cancelled while queued
            return
        queue_time = time.monotonic() - entry.enqueued_at
        outcome = "completed"
        try:
            if entry.deadline is not None and time.monotonic() >= entry.deadline:
                outcome = "expired"
                raise ServiceError(
                    f"queueing deadline expired after {queue_time:.3f}s; "
                    "the request never ran",
                    code="deadline_expired",
                )
            attempts, degraded = 1, False
            response = self._execute(request)
            if (
                response.timed_out
                and self._config.retry_degrade
                and (entry.deadline is None or time.monotonic() < entry.deadline)
            ):
                retry = self._degraded_request(request)
                if retry is not None:
                    response = self._execute(retry)
                    attempts, degraded = 2, True
        except BaseException as exc:
            if outcome != "expired":
                outcome = "error"
            self._release(entry, outcome)
            entry.future.set_exception(exc)
            return
        if degraded:
            outcome = "degraded"
        self._release(entry, outcome)
        entry.future.set_result(
            replace(
                response,
                queue_time_s=queue_time,
                attempts=attempts,
                degraded=degraded,
                executor=self._config.executor,
            )
        )

    def _release(self, entry: _Entry, outcome: str | None = None) -> None:
        """Settle one admitted entry; ``outcome=None`` (cancelled while
        queued) only frees its in-flight slot."""
        with self._lock:
            account = self._accounts[entry.tenant]
            account.inflight -= 1
            if outcome == "expired":
                account.expired += 1
            elif outcome == "error":
                account.errors += 1
            elif outcome == "degraded":
                account.degraded += 1
                account.completed += 1
            elif outcome == "completed":
                account.completed += 1

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def stats(self) -> SchedulerStats:
        """A consistent :class:`SchedulerStats` snapshot."""
        depth = len(self._queue)
        procpool = None
        if self._config.executor == "process":
            pool = getattr(self._service, "procpool", None)
            if pool is not None:
                procpool = pool.health()
        with self._lock:
            tenants = {
                name: account.to_dict()
                for name, account in self._accounts.items()
            }
        totals = {
            key: sum(counts[key] for counts in tenants.values())
            for key in _TOTALS
        }
        return SchedulerStats(
            queue_depth=depth,
            queue_capacity=self._queue.capacity,
            workers=len(self._workers),
            tenants=tenants,
            executor=self._config.executor,
            procpool=procpool,
            **totals,
        )

    def shutdown(self, wait: bool = True) -> None:
        """Stop admissions, then stop the workers once the queue drains.

        Queued entries still execute; callers that want to abandon work
        cancel their futures first.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._queue.close()
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "CostAwareScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"CostAwareScheduler(workers={len(self._workers)}, "
            f"queued={len(self._queue)})"
        )
