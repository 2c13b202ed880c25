"""The child-process side of :class:`~repro.procpool.pool.ProcessPool`.

A worker is a long-lived ``multiprocessing`` process running
:func:`worker_main`: it rebuilds a private :class:`~repro.service.
service.MatchService` from a **picklable catalog spec** (plain dicts —
registry dataset names, or serialized graphs via
:func:`~repro.api.plan.graph_payload`, plus the entry's component
overrides), then serves request envelopes off its task queue until the
``None`` sentinel arrives.

Bit-identity across the process boundary rests on deterministic
planning: the worker canonicalizes the query and plans it exactly as
the parent would (same catalog recipe, same components), so its first
request per isomorphism class builds the same plan and every later
request is a warm in-memory hit.  Each worker holds its own
lazily-built per-dataset :class:`~repro.api.matcher.Matcher` through
its private catalog, exactly like the parent does.

Everything that crosses the IPC boundary is a dict of JSON-compatible
primitives (``MatchRequest.to_dict`` in, ``MatchResponse.to_dict``
out), so serialization failures are confined to :func:`_safe_put`'s
fallback envelope — a worker answers every task with *something*, and
the parent's monitor thread covers the only remaining failure mode
(the process dying outright).
"""

from __future__ import annotations

import os

from repro.api.plan import graph_from_payload, graph_payload
from repro.service.requests import MatchRequest, ServiceError, error_code_for

__all__ = ["catalog_spec", "worker_main"]


def catalog_spec(catalog) -> dict:
    """A picklable recipe for rebuilding ``catalog`` in a worker.

    The worker's plan cache gets the catalog's byte budget.
    Registry-backed entries ship as names (the worker loads them
    through the process-cached :func:`repro.datasets.load_dataset`);
    explicit in-memory graphs ship as
    :func:`~repro.api.plan.graph_payload` dicts.  Component overrides
    (filter/orderer/limits) travel verbatim.

    Entries carrying a live in-memory ``model`` are refused with a
    ``validation`` :class:`~repro.service.requests.ServiceError`:
    trained orderer models are not part of the wire contract, and
    silently dropping one would change results between executors.
    """
    datasets: dict[str, dict] = {}
    for name in catalog.names():
        entry = catalog.entry(name)
        if entry.model is not None:
            raise ServiceError(
                f"dataset {name!r} carries an in-memory model; the process "
                "executor cannot ship live models to workers — serve it "
                "with the thread executor instead",
                code="validation",
            )
        spec: dict = {
            "filter": entry.filter,
            "orderer": entry.orderer,
            "match_limit": entry.match_limit,
            "time_limit": entry.time_limit,
        }
        if entry.data is not None:
            spec["graph"] = graph_payload(entry.data)
        datasets[name] = spec
    return {"datasets": datasets, "cache_bytes": catalog.plan_cache.max_bytes}


def _build_service(spec: dict):
    """The worker's private :class:`MatchService` from a catalog spec."""
    # Imports live here (not module top) so the spawn bootstrap pays
    # them once, inside the child, after the interpreter is up.
    from repro.service.catalog import CatalogEntry
    from repro.service.service import MatchService

    entries: dict[str, CatalogEntry] = {}
    for name, dataset in spec["datasets"].items():
        graph = (
            graph_from_payload(dataset["graph"]) if "graph" in dataset else None
        )
        entries[name] = CatalogEntry(
            name=name,
            data=graph,
            filter=dataset["filter"],
            orderer=dataset["orderer"],
            match_limit=dataset["match_limit"],
            time_limit=dataset["time_limit"],
        )
    return MatchService(entries, cache_bytes=spec["cache_bytes"])


def _safe_put(result_queue, reply: dict, task_id: int) -> None:
    """Send ``reply``, degrading to an error envelope when it cannot
    be pickled — the parent must always hear back for ``task_id``."""
    try:
        result_queue.put(reply)
    except Exception as exc:  # unpicklable payload, broken pipe mid-pickle
        result_queue.put(
            {
                "id": task_id,
                "ok": False,
                "error": f"worker failed to serialize its result: {exc}",
                "code": "internal",
            }
        )


def worker_main(spec: dict, task_queue, result_queue) -> None:
    """Process entry point: serve tasks until the ``None`` sentinel.

    Every task is answered exactly once: a success envelope
    (``{"id", "ok": True, "response"}``), or an error envelope
    (``{"id", "ok": False, "error", "code"}``) for anything the request
    raised — the stable code vocabulary travels with it, so the parent
    re-raises the same :class:`ServiceError` class a direct in-process
    call would have produced.

    The ``chaos`` key is a test-only fault injector (never set by
    production code paths): ``"exit"`` hard-kills the worker
    mid-request to exercise the parent's death monitor, and
    ``"unpicklable"`` poisons the reply payload to pin
    :func:`_safe_put`'s fallback.
    """
    service = _build_service(spec)
    result_queue.put({"id": None, "ready": True, "pid": os.getpid()})
    while True:
        task = task_queue.get()
        if task is None:
            break
        task_id = task["id"]
        chaos = task.get("chaos")
        if chaos == "exit":
            os._exit(17)
        try:
            request = MatchRequest.from_dict(task["request"])
            response = service.submit(request)
            reply: dict = {
                "id": task_id,
                "ok": True,
                "response": response.to_dict(),
            }
            if chaos == "unpicklable":
                reply["poison"] = lambda: None  # defeats pickle on purpose
        except BaseException as exc:
            reply = {
                "id": task_id,
                "ok": False,
                "error": str(exc),
                "code": error_code_for(exc),
            }
        _safe_put(result_queue, reply, task_id)
    service.close()
