"""A long-lived process pool executing :class:`MatchRequest` envelopes.

This is the execution tier ``CostAwareScheduler`` dispatches to under
``SchedulerConfig(executor="process")``: Phase (3) enumeration is
CPU-bound Python, so thread workers serialize on the GIL no matter how
wide the pool — processes are the only way serving throughput scales
with cores.  The contract mirrors the thread path exactly:

* **bit-identity** — a worker serves through an unmodified
  :meth:`MatchService.submit` over the same catalog recipe, and
  planning is deterministic, so the worker builds the plan the parent
  would and match sequences and ``#enum`` are identical to a direct
  in-process call;
* **no hung futures** — every submitted task resolves: with the served
  response, with the worker's structured error envelope, or — when a
  worker dies mid-request or a result cannot be pickled — with a
  :class:`ServiceError` (``code="internal"``) raised by the parent.

Topology: one task ``SimpleQueue`` per worker (at most one in-flight
task each — dispatch stays in the parent, where the scheduler's
ordering decisions were already made), one shared result queue drained
by a collector thread, and a monitor thread watching process sentinels.
``SimpleQueue`` over ``Queue`` on purpose: puts pickle synchronously in
the caller, so a poisoned payload raises where it can be handled
instead of killing a hidden feeder thread.  A dead worker fails its
in-flight future and is respawned (bounded by ``respawn_limit``);
once respawns are exhausted and no worker remains alive the pool is
**unrecoverably down** — pending and new submissions fail fast, and
``GET /healthz`` turns 503.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
from collections import deque
from concurrent.futures import Future
from multiprocessing.connection import wait as _sentinel_wait

from repro.procpool.worker import worker_main
from repro.service.requests import (
    ERROR_HTTP_STATUS,
    MatchRequest,
    MatchResponse,
    ServiceError,
)

__all__ = ["DEFAULT_RESPAWN_LIMIT", "ProcessPool"]

#: Worker deaths the pool will absorb (respawn) before declaring
#: itself unrecoverably down.
DEFAULT_RESPAWN_LIMIT = 8

#: Seconds a graceful shutdown waits for a busy worker before
#: terminating it.
_SHUTDOWN_GRACE_S = 30.0


class _Task:
    """One submitted request: its wire payload and the caller's future."""

    __slots__ = ("task_id", "payload", "future", "chaos")

    def __init__(self, task_id: int, payload: dict, chaos: str | None = None):
        self.task_id = task_id
        self.payload = payload
        self.future: Future = Future()
        self.chaos = chaos

    def message(self) -> dict:
        message = {"id": self.task_id, "request": self.payload}
        if self.chaos is not None:
            message["chaos"] = self.chaos
        return message


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("index", "process", "task_queue", "busy", "served", "reaped")

    def __init__(self, index: int, process, task_queue):
        self.index = index
        self.process = process
        self.task_queue = task_queue
        self.busy: _Task | None = None
        self.served = 0
        self.reaped = False  # death already handled by the monitor


class ProcessPool:
    """Long-lived spawn workers serving :class:`MatchRequest` envelopes.

    Parameters
    ----------
    spec:
        Picklable catalog recipe from
        :func:`~repro.procpool.worker.catalog_spec` — what each worker
        rebuilds its private :class:`MatchService` from.
    workers:
        Number of worker processes (spawned eagerly, datasets loaded
        lazily inside each on first touch).
    respawn_limit:
        Worker deaths absorbed before the pool refuses to respawn.
    context:
        ``multiprocessing`` start method.  ``"spawn"`` is the default
        and the only safe choice here: the parent is multithreaded
        (scheduler workers, asyncio server), and forking a threaded
        process inherits locks in undefined states.
    """

    def __init__(
        self,
        spec: dict,
        workers: int = 4,
        *,
        respawn_limit: int = DEFAULT_RESPAWN_LIMIT,
        context: str = "spawn",
    ):
        if workers <= 0:
            raise ValueError("process pool workers must be positive")
        self._spec = spec
        self._ctx = mp.get_context(context)
        self._result_queue = self._ctx.SimpleQueue()
        self._lock = threading.Lock()
        self._pending: deque[_Task] = deque()
        self._inflight: dict[int, _Task] = {}
        self._task_seq = 0
        self._respawns = 0
        self._respawn_limit = int(respawn_limit)
        self._closed = False
        self._down = False
        self._workers = [self._spawn(i) for i in range(workers)]
        self._collector = threading.Thread(
            target=self._collect_loop, name="repro-pool-collect", daemon=True
        )
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-pool-monitor", daemon=True
        )
        self._collector.start()
        self._monitor.start()

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _WorkerHandle:
        task_queue = self._ctx.SimpleQueue()
        process = self._ctx.Process(
            target=worker_main,
            args=(self._spec, task_queue, self._result_queue),
            name=f"repro-pool-worker-{index}",
            daemon=True,
        )
        process.start()
        return _WorkerHandle(index, process, task_queue)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: MatchRequest, *, _chaos: str | None = None) -> Future:
        """Dispatch one request; a ``Future`` resolving to its response.

        The future resolves to the worker's :class:`MatchResponse`, or
        raises the structured failure — the worker's own error envelope
        re-raised as :class:`ServiceError` with its stable code, or
        ``code="internal"`` when the worker died mid-request.  Never
        hangs: the monitor thread fails futures of dead workers.
        """
        task = _Task(self._next_id(), request.to_dict(), chaos=_chaos)
        with self._lock:
            if self._closed:
                raise ServiceError(
                    "process pool is shut down", code="rejected"
                )
            if self._down:
                raise ServiceError(
                    "process pool is unrecoverably down "
                    f"(respawn limit {self._respawn_limit} exhausted)",
                    code="internal",
                )
            self._inflight[task.task_id] = task
            worker = self._idle_worker_locked()
            if worker is not None:
                self._assign_locked(worker, task)
            else:
                self._pending.append(task)
        return task.future

    def execute(self, request: MatchRequest) -> MatchResponse:
        """Blocking :meth:`submit` — what scheduler workers call."""
        return self.submit(request).result()

    def _next_id(self) -> int:
        with self._lock:
            self._task_seq += 1
            return self._task_seq

    def _idle_worker_locked(self) -> _WorkerHandle | None:
        for worker in self._workers:
            if worker.busy is None and worker.process.is_alive():
                return worker
        return None

    def _assign_locked(self, worker: _WorkerHandle, task: _Task) -> None:
        worker.busy = task
        # SimpleQueue.put pickles synchronously in this thread; the
        # payload is a dict of primitives, so this cannot block on a
        # feeder and a pickling error would surface right here.
        worker.task_queue.put(task.message())

    def _dispatch_pending_locked(self, worker: _WorkerHandle) -> None:
        if worker.busy is None and worker.process.is_alive() and self._pending:
            self._assign_locked(worker, self._pending.popleft())

    # ------------------------------------------------------------------
    # Result collection
    # ------------------------------------------------------------------
    def _collect_loop(self) -> None:
        while True:
            message = self._result_queue.get()
            if message is None:
                return
            if message.get("id") is None:
                continue  # worker ready/hello messages
            task_id = message["id"]
            with self._lock:
                task = self._inflight.pop(task_id, None)
                for worker in self._workers:
                    if worker.busy is task and task is not None:
                        worker.busy = None
                        worker.served += 1
                        self._dispatch_pending_locked(worker)
                        break
            if task is None:
                continue  # completed after its worker was declared dead
            if message.get("ok"):
                try:
                    response = MatchResponse.from_dict(message["response"])
                except Exception as exc:
                    task.future.set_exception(
                        ServiceError(
                            f"malformed worker response: {exc}", code="internal"
                        )
                    )
                else:
                    task.future.set_result(response)
            else:
                code = message.get("code", "internal")
                if code not in ERROR_HTTP_STATUS:
                    code = "internal"
                task.future.set_exception(
                    ServiceError(str(message.get("error", "worker error")), code=code)
                )

    # ------------------------------------------------------------------
    # Death watch
    # ------------------------------------------------------------------
    def _monitor_loop(self) -> None:
        while True:
            # A death can land between wait windows (the process was
            # already gone when the snapshot was built), so each pass
            # first sweeps dead-but-unhandled workers explicitly — a
            # sentinel wait alone would miss them forever.
            dead: list[_WorkerHandle] = []
            with self._lock:
                if self._closed:
                    return
                sentinels: dict = {}
                for worker in self._workers:
                    if worker.reaped:
                        continue
                    if worker.process.is_alive():
                        sentinels[worker.process.sentinel] = worker
                    else:
                        dead.append(worker)
            for worker in dead:
                self._on_worker_death(worker)
            if not sentinels:
                time.sleep(0.05)
                continue
            for sentinel in _sentinel_wait(list(sentinels), timeout=0.2):
                self._on_worker_death(sentinels[sentinel])

    def _on_worker_death(self, worker: _WorkerHandle) -> None:
        failed: list[tuple[_Task, ServiceError]] = []
        with self._lock:
            if self._closed or worker.reaped or worker.process.is_alive():
                return
            worker.reaped = True
            task, worker.busy = worker.busy, None
            if task is not None:
                self._inflight.pop(task.task_id, None)
                failed.append(
                    (
                        task,
                        ServiceError(
                            f"worker process {worker.process.name} "
                            f"(pid {worker.process.pid}) died mid-request "
                            f"(exit code {worker.process.exitcode})",
                            code="internal",
                        ),
                    )
                )
            if self._respawns < self._respawn_limit:
                self._respawns += 1
                fresh = self._spawn(worker.index)
                self._workers[self._workers.index(worker)] = fresh
                self._dispatch_pending_locked(fresh)
            elif not any(w.process.is_alive() for w in self._workers):
                # Out of respawn budget with nobody left: the pool is
                # unrecoverably down.  Fail the backlog — a queued task
                # must never outlive every worker that could serve it.
                self._down = True
                error = ServiceError(
                    "process pool is unrecoverably down "
                    f"(respawn limit {self._respawn_limit} exhausted)",
                    code="internal",
                )
                while self._pending:
                    stranded = self._pending.popleft()
                    self._inflight.pop(stranded.task_id, None)
                    failed.append((stranded, error))
        for task, error in failed:
            if task.future.set_running_or_notify_cancel():
                task.future.set_exception(error)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """Liveness snapshot for ``/healthz`` and the stats block."""
        with self._lock:
            alive = sum(1 for w in self._workers if w.process.is_alive())
            return {
                "workers": len(self._workers),
                "alive": alive,
                "dead": len(self._workers) - alive,
                "busy": sum(1 for w in self._workers if w.busy is not None),
                "backlog": len(self._pending),
                "served": sum(w.served for w in self._workers),
                "respawns": self._respawns,
                "respawn_limit": self._respawn_limit,
                "down": self._down,
            }

    @property
    def down(self) -> bool:
        """Whether the pool is unrecoverably down (see ``/healthz``)."""
        with self._lock:
            return self._down

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool: finish in-flight work, then stop the workers.

        Pending (never-dispatched) tasks are failed with a ``rejected``
        envelope; in-flight tasks get their worker's answer if it
        arrives within the grace window, after which the worker is
        terminated and the future fails ``internal``.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            stranded = list(self._pending)
            self._pending.clear()
            for task in stranded:
                self._inflight.pop(task.task_id, None)
            workers = list(self._workers)
        rejection = ServiceError(
            "process pool shut down before the request was dispatched",
            code="rejected",
        )
        for task in stranded:
            if task.future.set_running_or_notify_cancel():
                task.future.set_exception(rejection)
        for worker in workers:
            if worker.process.is_alive():
                try:
                    worker.task_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        if wait:
            deadline = time.monotonic() + _SHUTDOWN_GRACE_S
            for worker in workers:
                worker.process.join(max(0.0, deadline - time.monotonic()))
                if worker.process.is_alive():  # pragma: no cover - grace path
                    worker.process.terminate()
                    worker.process.join(5.0)
        # Unblock and retire the collector, then fail anything a
        # terminated worker never answered.
        self._result_queue.put(None)
        if wait:
            self._collector.join(5.0)
            self._monitor.join(5.0)
            with self._lock:
                orphaned = list(self._inflight.values())
                self._inflight.clear()
            for task in orphaned:
                if task.future.set_running_or_notify_cancel():
                    task.future.set_exception(
                        ServiceError(
                            "process pool shut down before the worker answered",
                            code="internal",
                        )
                    )

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        health = self.health()
        return (
            f"ProcessPool(workers={health['workers']}, "
            f"alive={health['alive']}, backlog={health['backlog']})"
        )
