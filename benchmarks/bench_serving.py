"""Serving smoke benchmark: counts, 429s and bit-identity over HTTP.

Stands up :mod:`repro.server` in-process on a free port, replays a
deterministic closed-loop burst — ``--clients`` workers issuing
requests back-to-back over persistent connections until ``--requests``
responses have arrived — and writes one report (``BENCH_serving.json``)
with client-side latency percentiles, throughput and the summed
outputs.  Requests cycle through a :func:`repro.datasets.query_workload`
evaluation split, so the summed match counts and ``#enum`` are
schedule-independent: ``--compare`` fails on any drift in those totals,
on any non-2xx response, and on a baseline whose request schedule
differs.  Its timings are recorded, never compared with the baseline's;
performance claims go through ``benchmarks/e2e/compare.py`` over
alternating runs.

``--overload`` is the scheduler's A/B gate: the same adversarial
open-model mix — a cheap tier of small, deadline-carrying queries
interleaved with a heavy tier of time-limit-bound adversarial queries —
is driven against (a) a plain FIFO server and (b) one with the
cost-aware scheduler (:mod:`repro.service.scheduler`) attached.  The
report's ``overload`` block records the cheap-tier p95 under both
policies and hard-fails if any cheap request starved past its deadline
on the scheduled leg, if any rejected request surfaced as something
other than 429 + ``Retry-After``, if served outputs drifted between the
legs on any request both legs accepted, or if the scheduled cheap p95
failed to beat FIFO.

``--executor-ab`` drives the identical deterministic mix against the
scheduler's thread and :mod:`repro.procpool` process execution tiers,
hard-gated on zero output drift between the legs and, on multi-core
machines, on a core-aware process-speedup floor.  Every server is
polled on ``/healthz`` until it (including a process pool still
spawning) reports healthy, so a dead executor tier fails with one
actionable error.

The top level only defines: under ``"spawn"`` the process pool's
workers re-import this script.  Not collected by pytest (no ``test_``
prefix) — run it directly::

    PYTHONPATH=src python benchmarks/bench_serving.py --overload \
        [--scheduler-executor thread|process] [--executor-ab] \
        [--compare benchmarks/baselines/bench_serving.json] \
        [--output BENCH_serving.json]
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.datasets import load_dataset, query_workload
from repro.server import BackgroundServer
from repro.service import MatchRequest, MatchService, SchedulerConfig
from repro.service.service import _percentile

#: Report schema.  v4: ``quick``, ``mode``, ``rate_rps``,
#: ``calibration_s``, ``phases``, ``server`` and ``rate_sweep`` left.
SCHEMA = 4

#: The serving profile: small enough for CI, large enough that the
#: percentiles mean something.
DATASET = "citeseer"
QUERY_SIZE = 8
QUERIES = 6
REQUESTS = 36
CLIENTS = 4
MATCH_LIMIT = 10_000
TIME_LIMIT = 30.0

#: Report fields that define the request schedule; a baseline must
#: agree on every one before its totals mean anything.
PROFILE_FIELDS = ("schema", "requests", "queries", "match_limit", "clients")


def _build_request_bodies(queries: int, match_limit: int) -> list[bytes]:
    """Pre-encoded request bodies for a deterministic workload cycle."""
    data = load_dataset(DATASET)
    workload = query_workload(DATASET, size=QUERY_SIZE, count=queries, data=data).eval
    return [
        json.dumps(
            MatchRequest(
                DATASET, query,
                match_limit=match_limit, time_limit=TIME_LIMIT, tag=f"q{i}",
            ).to_dict()
        ).encode("utf-8")
        for i, query in enumerate(workload)
    ]


def _http_get_json(host: str, port: int, path: str, timeout: float = 30.0):
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} -> {response.status}")
        return json.loads(payload)
    finally:
        conn.close()


def _await_healthy(host: str, port: int, *, timeout: float = 30.0) -> dict:
    """Poll ``GET /healthz`` until the server reports ``status: ok``.

    A scheduler with ``executor="process"`` is only ready once its
    worker pool has spawned; a pool that failed to boot answers 503.
    Polling here (instead of firing traffic at a half-up server) makes
    the measurements clean and turns a broken executor tier into one
    actionable error instead of a run full of refused connections.
    """
    deadline = time.perf_counter() + timeout
    last: Exception | None = None
    while time.perf_counter() < deadline:
        try:
            return _http_get_json(host, port, "/healthz", timeout=5.0)
        except (OSError, RuntimeError, http.client.HTTPException,
                json.JSONDecodeError) as exc:
            last = exc
            time.sleep(0.1)
    raise RuntimeError(
        f"server at http://{host}:{port} did not become healthy within "
        f"{timeout:.0f}s: {last}"
    )


def _issue(
    conn: http.client.HTTPConnection, body: bytes
) -> tuple[int, dict | None, str | None]:
    """One POST /match over a persistent connection; reconnects once.

    Returns ``(status, payload, retry_after)`` where ``retry_after`` is
    the ``Retry-After`` response header (``None`` when absent) — the
    backpressure contract the overload gate verifies on every 429.
    """
    for attempt in (0, 1):
        try:
            conn.request(
                "POST", "/match", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            raw = response.read()
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                payload = None
            return response.status, payload, response.getheader("Retry-After")
        except (ConnectionError, http.client.HTTPException, OSError):
            conn.close()
            if attempt:
                raise
    raise AssertionError("unreachable")  # pragma: no cover


def _poisson_offsets(rate: float, count: int, seed: int) -> np.ndarray:
    """Open-model schedule: seeded Poisson arrival offsets, in seconds
    from the run's start, fixed before the first request fires."""
    return np.cumsum(np.random.default_rng(seed).exponential(1.0 / rate, count))


def _drive(
    host: str, port: int, entries: list[dict], *,
    requests: int, clients: int, offsets=None, timeout: float,
) -> tuple[list[dict], float]:
    """The one client loop every scenario drives its traffic through.

    ``clients`` workers over persistent connections pull request indices
    off a shared counter; request ``i`` always carries
    ``entries[i % len(entries)]["body"]``, so any interleaving serves
    the same multiset of queries.  Closed loop (``offsets is None``):
    each worker issues back-to-back and latency runs from the send.
    Open loop: request ``i`` fires at ``t0 + offsets[i]`` regardless of
    completions and latency runs from that *scheduled* arrival, so
    queueing delay shows up instead of being absorbed.

    Returns one sample per request, in request order — status (0 for a
    transport failure), stable error ``code``, ``Retry-After``, outputs
    — plus the wall; every scenario aggregates from these.
    """
    samples: list[dict | None] = [None] * requests
    counter = iter(range(requests))
    counter_lock = threading.Lock()
    t0 = time.perf_counter()

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=timeout)
        try:
            while True:
                with counter_lock:
                    index = next(counter, None)
                if index is None:
                    return
                entry = entries[index % len(entries)]
                if offsets is not None:
                    issued = t0 + float(offsets[index])
                    delay = issued - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                else:
                    issued = time.perf_counter()
                try:
                    status, payload, retry_after = _issue(conn, entry["body"])
                except (ConnectionError, http.client.HTTPException, OSError):
                    status, payload, retry_after = 0, None, None
                latency = time.perf_counter() - issued
                if not isinstance(payload, dict):
                    payload = {"error": "no JSON object in the response"}
                samples[index] = {
                    "tag": entry.get("tag"),
                    "tier": entry.get("tier"),
                    "status": status,
                    "latency_s": round(latency, 6),
                    "code": payload.get("code"),
                    "error": payload.get("error"),
                    "retry_after": retry_after,
                    "num_matches": payload.get("num_matches"),
                    "num_enumerations": payload.get("num_enumerations"),
                    "timed_out": bool(payload.get("timed_out")),
                    "cache_hit": bool(payload.get("cache_hit")),
                }
        finally:
            conn.close()

    threads = [
        threading.Thread(target=worker, name=f"bench-serving-{i}", daemon=True)
        for i in range(max(1, clients))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - t0
    return [s for s in samples if s is not None], wall


def run_load(
    host: str,
    port: int,
    bodies: list[bytes],
    *,
    requests: int,
    clients: int,
    timeout: float = 60.0,
) -> dict:
    """Drive the closed loop and return the raw measurement dict.

    Request ``i`` (globally ordered) always carries ``bodies[i % len]``,
    which is what makes the summed outputs schedule-independent: any
    interleaving serves the same multiset of queries.
    """
    samples, wall = _drive(
        host, port, [{"body": body} for body in bodies],
        requests=requests, clients=clients, timeout=timeout,
    )
    window = sorted(s["latency_s"] for s in samples)
    served = [s for s in samples if s["status"] == 200 and not s["error"]]
    statuses: dict[int, int] = {}
    for sample in samples:
        statuses[sample["status"]] = statuses.get(sample["status"], 0) + 1
    return {
        "requests": requests,
        "clients": clients,
        "wall_s": round(wall, 6),
        "throughput_rps": round(len(window) / max(wall, 1e-9), 2),
        "errors": len(samples) - len(served),
        "statuses": {str(k): v for k, v in sorted(statuses.items())},
        "latency_p50_s": round(_percentile(window, 0.50), 6),
        "latency_p95_s": round(_percentile(window, 0.95), 6),
        "latency_p99_s": round(_percentile(window, 0.99), 6),
        "totals": {
            "matches": sum(int(s["num_matches"] or 0) for s in served),
            "num_enumerations": sum(int(s["num_enumerations"] or 0) for s in served),
        },
        "cache_hits": sum(s["cache_hit"] for s in served),
    }


# ---------------------------------------------------------------------------
# Overload A/B: FIFO vs cost-aware scheduling (the scheduler's gate)
# ---------------------------------------------------------------------------
#: Overload-mix profile.  The cheap tier is small queries with a
#: queueing deadline; the heavy tier is large queries whose enumeration
#: is time-limit-bound, so each one occupies a worker for exactly
#: ``OVERLOAD_HEAVY_TIME_LIMIT`` seconds regardless of machine speed —
#: the backlog dynamics (and therefore the gate) are machine-portable.
#: ``OVERLOAD_PAIRS`` cheap/heavy pairs arrive open-model at
#: ``OVERLOAD_RATE`` req/s on the ``OVERLOAD_SEED`` schedule.
OVERLOAD_PAIRS = 20
OVERLOAD_RATE = 12.0
OVERLOAD_SEED = 0
OVERLOAD_CLIENTS = 16
OVERLOAD_CHEAP_SIZE = 4
OVERLOAD_CHEAP_QUERIES = 8
OVERLOAD_CHEAP_MATCH_LIMIT = 500
OVERLOAD_CHEAP_DEADLINE_S = 10.0
OVERLOAD_HEAVY_SIZE = 32
OVERLOAD_HEAVY_CANDIDATES = 6
OVERLOAD_HEAVY_TIME_LIMIT = 0.75


def _probe_heavy_queries(data) -> list:
    """The size-32 workload queries that are genuinely adversarial.

    A candidate qualifies when its unlimited enumeration still runs at
    the heavy tier's time limit (``timed_out=True``), so every heavy
    request is guaranteed to hold a worker for the full budget.  The
    probe runs the candidates through a throwaway in-process service —
    a few seconds once, and the heavy pool is then correct on any
    machine speed rather than tuned to one.
    """
    candidates = query_workload(
        DATASET, size=OVERLOAD_HEAVY_SIZE, count=OVERLOAD_HEAVY_CANDIDATES,
        data=data,
    ).eval
    heavy = []
    service = MatchService(catalog=[DATASET])
    try:
        for query in candidates:
            response = service.submit(
                MatchRequest(
                    DATASET, query,
                    match_limit=None, time_limit=OVERLOAD_HEAVY_TIME_LIMIT,
                )
            )
            if response.ok and response.timed_out:
                heavy.append(query)
    finally:
        service.close()
    if not heavy:
        raise RuntimeError(
            f"no size-{OVERLOAD_HEAVY_SIZE} {DATASET} workload query is "
            f"time-limit-bound at {OVERLOAD_HEAVY_TIME_LIMIT}s on this "
            f"machine; the overload scenario cannot form an adversarial mix"
        )
    return heavy


def _build_overload_entries() -> list[dict]:
    """The interleaved cheap/heavy request stream, one entry per slot.

    Every slot carries a unique ``tag`` (``cheap-3``, ``heavy-7``), so
    the two legs' outputs can be compared request-by-request — the
    drift side of the gate.
    """
    data = load_dataset(DATASET)
    cheap = query_workload(
        DATASET, size=OVERLOAD_CHEAP_SIZE, count=OVERLOAD_CHEAP_QUERIES,
        data=data,
    ).eval
    heavy = _probe_heavy_queries(data)
    entries = []
    for i in range(2 * OVERLOAD_PAIRS):
        slot = i // 2
        if i % 2 == 0:
            request = MatchRequest(
                DATASET, cheap[slot % len(cheap)],
                match_limit=OVERLOAD_CHEAP_MATCH_LIMIT,
                time_limit=TIME_LIMIT,
                tenant="cheap", deadline_s=OVERLOAD_CHEAP_DEADLINE_S,
                tag=f"cheap-{slot}",
            )
            tier = "cheap"
        else:
            request = MatchRequest(
                DATASET, heavy[slot % len(heavy)],
                match_limit=None, time_limit=OVERLOAD_HEAVY_TIME_LIMIT,
                tenant="heavy", tag=f"heavy-{slot}",
            )
            tier = "heavy"
        entries.append({
            "tag": request.tag,
            "tier": tier,
            "body": json.dumps(request.to_dict()).encode("utf-8"),
        })
    return entries


def _tier_percentiles(samples: list[dict], tier: str) -> dict:
    """Latency summary over a tier's *served* (HTTP 200) samples."""
    latencies = sorted(
        s["latency_s"] for s in samples
        if s["tier"] == tier and s["status"] == 200
    )
    offered = sum(1 for s in samples if s["tier"] == tier)
    return {
        "offered": offered,
        "served": len(latencies),
        "latency_p50_s": round(_percentile(latencies, 0.50), 6),
        "latency_p95_s": round(_percentile(latencies, 0.95), 6),
    }


def _leg_summary(samples: list[dict]) -> dict:
    statuses: dict[str, int] = {}
    codes: dict[str, int] = {}
    for sample in samples:
        statuses[str(sample["status"])] = statuses.get(str(sample["status"]), 0) + 1
        if sample["code"]:
            codes[sample["code"]] = codes.get(sample["code"], 0) + 1
    return {
        "statuses": dict(sorted(statuses.items())),
        "codes": dict(sorted(codes.items())),
        "cheap": _tier_percentiles(samples, "cheap"),
        "heavy": _tier_percentiles(samples, "heavy"),
    }


def _served_outputs(samples: list[dict]) -> dict:
    """``tag -> (matches, #enum)`` for drift-comparable samples.

    Only untruncated-by-time responses are comparable: a timed-out
    enumeration stops at a nondeterministic point, so its counts are
    legitimately schedule-dependent and excluded by design.
    """
    return {
        s["tag"]: (s["num_matches"], s["num_enumerations"])
        for s in samples
        if s["status"] == 200 and not s["timed_out"]
    }


def run_overload() -> dict:
    """The FIFO-vs-scheduled A/B under an adversarial open-model mix.

    The identical request stream — ``OVERLOAD_PAIRS`` cheap (small
    query, tight ``deadline_s``, tenant ``cheap``) interleaved with as
    many heavy (time-limit-bound enumeration, tenant ``heavy``) — is
    driven twice against self-hosted servers:

    ``fifo``
        A plain service, ``max_concurrency=2``: arrival order is
        service order, so cheap requests queue behind every heavy
        enumeration in front of them.
    ``scheduled``
        The same two execution slots as scheduler workers behind the
        cost-aware admission queue: deadline-carrying cheap requests
        sort ahead of deadline-less heavy ones, and the ``heavy``
        tenant's in-flight budget converts the backlog into explicit
        429 + ``Retry-After`` rejections.

    Returns the report block, with ``ok=False`` and a ``violations``
    list if any cheap request starved past its deadline on the
    scheduled leg, any rejection broke the 429 + ``Retry-After``
    contract, the scheduled leg never exercised backpressure, outputs
    drifted between legs on any request both served untruncated, or
    the scheduled cheap p95 failed to beat FIFO.
    """
    entries = _build_overload_entries()
    offsets = _poisson_offsets(OVERLOAD_RATE, len(entries), OVERLOAD_SEED)
    legs: dict[str, list[dict]] = {}
    scheduler_stats = None
    for leg in ("fifo", "scheduled"):
        if leg == "fifo":
            service = MatchService(catalog=[DATASET])
            server_kwargs = {"port": 0, "max_concurrency": 2}
        else:
            service = MatchService(
                catalog=[DATASET],
                scheduler=SchedulerConfig(
                    workers=2, queue_capacity=64, tenant_max_inflight=6,
                    retry_degrade=False,
                ),
            )
            server_kwargs = {"port": 0, "max_concurrency": 16}
        try:
            with BackgroundServer(service, **server_kwargs) as background:
                host, port = background.address
                _await_healthy(host, port)
                legs[leg], _ = _drive(
                    host, port, entries,
                    requests=len(entries), clients=OVERLOAD_CLIENTS,
                    timeout=120.0, offsets=offsets,
                )
                if leg == "scheduled":
                    scheduler_stats = _http_get_json(
                        host, port, "/stats"
                    ).get("scheduler")
        finally:
            service.close()

    violations: list[str] = []
    for sample in legs["scheduled"]:
        if sample["tier"] == "cheap" and sample["code"] == "deadline_expired":
            violations.append(
                f"cheap starvation: {sample['tag']} expired in queue "
                f"after {sample['latency_s']:.3f}s on the scheduled leg"
            )
    for leg, samples in legs.items():
        for sample in samples:
            rejected = sample["code"] == "rejected"
            if rejected != (sample["status"] == 429):
                violations.append(
                    f"{leg}: {sample['tag']} broke the rejection contract "
                    f"(status={sample['status']}, code={sample['code']!r})"
                )
            elif rejected and not sample["retry_after"]:
                violations.append(
                    f"{leg}: {sample['tag']} was 429-rejected without a "
                    f"Retry-After header"
                )
    if "429" not in _leg_summary(legs["scheduled"])["statuses"]:
        violations.append(
            "scheduled leg never exercised backpressure (no 429s) — the "
            "mix is not adversarial enough to gate on"
        )
    fifo_outputs = _served_outputs(legs["fifo"])
    sched_outputs = _served_outputs(legs["scheduled"])
    compared = sorted(set(fifo_outputs) & set(sched_outputs))
    drift_mismatches = 0
    for tag in compared:
        if fifo_outputs[tag] != sched_outputs[tag]:
            drift_mismatches += 1
            violations.append(
                f"output drift on {tag}: fifo={fifo_outputs[tag]} "
                f"scheduled={sched_outputs[tag]}"
            )
    fifo_p95 = _tier_percentiles(legs["fifo"], "cheap")["latency_p95_s"]
    sched_p95 = _tier_percentiles(legs["scheduled"], "cheap")["latency_p95_s"]
    if not sched_p95 or sched_p95 >= fifo_p95:
        violations.append(
            f"no cheap p95 win: fifo={fifo_p95:.3f}s vs "
            f"scheduled={sched_p95:.3f}s"
        )
    return {
        "dataset": DATASET,
        "pairs": OVERLOAD_PAIRS,
        "rate_rps": OVERLOAD_RATE,
        "seed": OVERLOAD_SEED,
        "cheap_deadline_s": OVERLOAD_CHEAP_DEADLINE_S,
        "heavy_time_limit_s": OVERLOAD_HEAVY_TIME_LIMIT,
        "fifo": _leg_summary(legs["fifo"]),
        "scheduled": {
            **_leg_summary(legs["scheduled"]),
            "scheduler": scheduler_stats,
        },
        "cheap_p95_improvement": round(fifo_p95 / sched_p95, 3)
        if sched_p95 else None,
        "drift": {"compared": len(compared), "mismatches": drift_mismatches},
        "violations": violations,
        "ok": not violations,
    }


# ---------------------------------------------------------------------------
# Executor A/B: thread vs process execution tier (the procpool gate)
# ---------------------------------------------------------------------------
#: Armed speedup thresholds by core count.  Phase (3) is GIL-serialized
#: on the thread executor, so process workers win in proportion to the
#: cores actually available; on a single-core box the process tier can
#: only add IPC overhead and the wall-clock side of the gate disarms
#: (the zero-drift side is unconditional).
AB_SPEEDUP_BY_CORES = ((4, 2.0), (2, 1.2))
AB_REQUESTS = 48
AB_CLIENTS = 8
AB_WORKERS = 4


def _required_ab_speedup(cpus: int) -> float:
    for cores, speedup in AB_SPEEDUP_BY_CORES:
        if cpus >= cores:
            return speedup
    return 0.0


def run_executor_ab() -> dict:
    """Thread-vs-process scheduler execution tier over identical traffic.

    The default workload cycle (``QUERIES`` queries at ``MATCH_LIMIT``)
    is driven closed-loop against two self-hosted servers, both behind
    the cost-aware scheduler with ``AB_WORKERS`` execution slots — one
    with the in-process thread tier (Phase (3) GIL-serialized), one
    dispatching to as many :mod:`repro.procpool` worker processes.

    Two gates:

    * **Zero output drift (unconditional).**  Every request is
      match-limit-truncated, never time-limit-truncated, so its
      ``(num_matches, #enum)`` is deterministic; any disagreement —
      across legs on the same tag, or between same-tag requests within
      one leg — is a violation.  A ``timed_out`` response is itself a
      violation (time truncation would make the comparison vacuous).
    * **Speedup (core-aware).**  thread-wall / process-wall must reach
      the :data:`AB_SPEEDUP_BY_CORES` threshold for this machine's core
      count; on a single core the threshold is 0 and the ratio is
      recorded without gating.

    Each leg gets an untimed warmup round sized so every worker has
    planned every query into its own cache — the measured walls compare
    steady-state execution, not spawn and cold-planning noise.
    """
    entries = [
        {"tag": f"q{i}", "body": body}
        for i, body in enumerate(_build_request_bodies(QUERIES, MATCH_LIMIT))
    ]
    warmup_requests = len(entries) * AB_WORKERS

    legs: dict[str, list[dict]] = {}
    walls: dict[str, float] = {}
    for executor in ("thread", "process"):
        service = MatchService(
            catalog=[DATASET],
            scheduler=SchedulerConfig(
                workers=AB_WORKERS, executor=executor,
                process_workers=AB_WORKERS, queue_capacity=64,
                retry_degrade=False,
            ),
        )
        try:
            with BackgroundServer(
                service, port=0, max_concurrency=2 * AB_CLIENTS
            ) as background:
                host, port = background.address
                _await_healthy(host, port, timeout=60.0)
                _drive(
                    host, port, entries,
                    requests=warmup_requests, clients=AB_WORKERS, timeout=120.0,
                )
                legs[executor], walls[executor] = _drive(
                    host, port, entries,
                    requests=AB_REQUESTS, clients=AB_CLIENTS, timeout=120.0,
                )
        finally:
            service.close()

    violations: list[str] = []
    outputs: dict[str, dict[str, tuple]] = {}
    for executor, samples in legs.items():
        per_tag: dict[str, tuple] = {}
        for sample in samples:
            if sample["status"] != 200 or sample["code"]:
                violations.append(
                    f"{executor}: {sample['tag']} failed "
                    f"(status={sample['status']}, code={sample['code']!r})"
                )
                continue
            if sample["timed_out"]:
                violations.append(
                    f"{executor}: {sample['tag']} was time-limit-truncated; "
                    f"the A/B mix must be match-limit-bound to compare"
                )
                continue
            observed = (sample["num_matches"], sample["num_enumerations"])
            if per_tag.setdefault(sample["tag"], observed) != observed:
                violations.append(
                    f"{executor}: {sample['tag']} nondeterministic within "
                    f"the leg: {per_tag[sample['tag']]} vs {observed}"
                )
        outputs[executor] = per_tag
    compared = sorted(set(outputs["thread"]) & set(outputs["process"]))
    drift_mismatches = 0
    for tag in compared:
        if outputs["thread"][tag] != outputs["process"][tag]:
            drift_mismatches += 1
            violations.append(
                f"output drift on {tag}: thread={outputs['thread'][tag]} "
                f"process={outputs['process'][tag]}"
            )

    cpus = os.cpu_count() or 1
    required = _required_ab_speedup(cpus)
    speedup = (
        round(walls["thread"] / walls["process"], 3)
        if walls["process"] else None
    )
    if required and (speedup is None or speedup < required):
        violations.append(
            f"process speedup {speedup} below the {required}x floor "
            f"for {cpus} cores"
        )

    def leg_block(executor: str) -> dict:
        latencies = sorted(
            s["latency_s"] for s in legs[executor] if s["status"] == 200
        )
        return {
            "wall_s": round(walls[executor], 6),
            "throughput_rps": round(
                len(latencies) / max(walls[executor], 1e-9), 2
            ),
            "latency_p50_s": round(_percentile(latencies, 0.50), 6),
            "latency_p95_s": round(_percentile(latencies, 0.95), 6),
        }

    return {
        "dataset": DATASET,
        "query_size": QUERY_SIZE,
        "queries": QUERIES,
        "requests": AB_REQUESTS,
        "clients": AB_CLIENTS,
        "workers": AB_WORKERS,
        "match_limit": MATCH_LIMIT,
        "cpus": cpus,
        "warmup_requests": warmup_requests,
        "required_speedup": required,
        "speedup": speedup,
        "thread": leg_block("thread"),
        "process": leg_block("process"),
        "drift": {"compared": len(compared), "mismatches": drift_mismatches},
        "violations": violations,
        "ok": not violations,
    }


# ---------------------------------------------------------------------------
# Baseline comparison (the CI serve-smoke gate)
# ---------------------------------------------------------------------------
def compare_against_baseline(report: dict, baseline: dict) -> bool:
    """Gate this run against a committed baseline report.

    The baseline must describe the same request schedule
    (:data:`PROFILE_FIELDS`); a field missing from it is a mismatch.
    Output drift — the summed match counts or ``#enum`` across the run —
    is a hard failure: the serving path must stay bit-identical to the
    engines beneath it.  Any non-2xx response fails.  Timings are not
    compared (see the module docstring).
    """
    ok = True
    for field in PROFILE_FIELDS:
        if report.get(field) != baseline.get(field):
            print(
                f"  compare: PROFILE MISMATCH on {field}: "
                f"{baseline.get(field)!r} -> {report.get(field)!r}"
            )
            ok = False
    base_totals = baseline.get("totals") or {}
    for field in ("matches", "num_enumerations"):
        mine, theirs = report["totals"][field], base_totals.get(field)
        if theirs is None:
            print(
                f"  compare: PROFILE MISMATCH on totals.{field}: "
                f"missing from the baseline"
            )
            ok = False
        elif mine != theirs:
            print(
                f"  compare: OUTPUT DRIFT on totals.{field}: "
                f"{theirs:,} -> {mine:,}"
            )
            ok = False
    if report.get("errors"):
        print(f"  compare: {report['errors']} non-2xx/failed responses")
        ok = False
    if ok:
        print("  compare: profile and totals equal the baseline's")
    return ok


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--queries", type=int, default=QUERIES,
        help="distinct workload queries cycled through",
    )
    parser.add_argument(
        "--requests", type=int, default=REQUESTS, help="total requests to issue"
    )
    parser.add_argument(
        "--clients", type=int, default=CLIENTS, help="concurrent client connections"
    )
    parser.add_argument(
        "--match-limit", type=int, default=MATCH_LIMIT,
        help="per-request match limit (part of the deterministic profile)",
    )
    parser.add_argument(
        "--overload", action="store_true",
        help="also run the FIFO-vs-scheduled overload A/B and gate on its "
        "violations",
    )
    parser.add_argument(
        "--executor-ab", action="store_true",
        help="also run the thread-vs-process scheduler execution tier "
        "A/B and gate on zero output drift plus a core-aware speedup floor",
    )
    parser.add_argument(
        "--scheduler-executor", choices=("thread", "process"), default=None,
        help="attach the cost-aware scheduler to the server and run the "
        "main measurement through this execution tier",
    )
    parser.add_argument(
        "--output", default="BENCH_serving.json", help="where to write the report"
    )
    parser.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="baseline JSON to gate against (profile + output drift + errors)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    bodies = _build_request_bodies(args.queries, args.match_limit)

    scheduler = None
    if args.scheduler_executor is not None:
        scheduler = SchedulerConfig(
            workers=4, executor=args.scheduler_executor, process_workers=4,
        )
    service = MatchService(catalog=[DATASET], scheduler=scheduler)
    try:
        # Closing the service stops the scheduler and the process pool:
        # a pool left running respawns workers while the interpreter
        # exits.
        with BackgroundServer(service, port=0, max_concurrency=16) as background:
            host, port = background.address
            try:
                health = _await_healthy(host, port)
            except RuntimeError as exc:
                print(f"bench_serving: {exc}", file=sys.stderr)
                return 1
            # Untimed warmup: one workload cycle per execution slot, so
            # the measured run reflects the warm serving path, not
            # plan-cold or worker-spawn noise.  A process pool needs
            # every worker to have seen every query once.
            executor = health.get("executor", {})
            pool_info = executor.get("process_pool") or {}
            warmup_requests = len(bodies) * max(1, int(pool_info.get("workers") or 1))
            print(
                f"serving at http://{host}:{port} "
                f"(executor={executor.get('kind')}), "
                f"{warmup_requests} untimed warmup requests",
                file=sys.stderr,
            )
            run_load(
                host, port, bodies, requests=warmup_requests, clients=args.clients
            )
            measurement = run_load(
                host, port, bodies, requests=args.requests, clients=args.clients
            )
    finally:
        service.close()

    report = {
        "schema": SCHEMA,
        "dataset": DATASET,
        "query_size": QUERY_SIZE,
        "queries": args.queries,
        "match_limit": args.match_limit,
        "warmup_requests": warmup_requests,
        **measurement,
    }

    overload_ok = True
    if args.overload:
        print("overload A/B: fifo vs scheduled", file=sys.stderr)
        overload = run_overload()
        report["overload"] = overload
        overload_ok = overload["ok"]
        fifo_p95 = overload["fifo"]["cheap"]["latency_p95_s"]
        sched_p95 = overload["scheduled"]["cheap"]["latency_p95_s"]
        print(
            f"overload: cheap p95 fifo={fifo_p95 * 1e3:.1f}ms "
            f"scheduled={sched_p95 * 1e3:.1f}ms "
            f"(improvement {overload['cheap_p95_improvement']}x), "
            f"scheduled statuses {overload['scheduled']['statuses']}, "
            f"drift {overload['drift']['mismatches']}/"
            f"{overload['drift']['compared']}",
            file=sys.stderr,
        )
        for violation in overload["violations"]:
            print(f"overload VIOLATION: {violation}", file=sys.stderr)

    ab_ok = True
    if args.executor_ab:
        print("executor A/B: thread vs process scheduler tier", file=sys.stderr)
        ab = run_executor_ab()
        report["executor_ab"] = ab
        ab_ok = ab["ok"]
        print(
            f"executor A/B: thread {ab['thread']['throughput_rps']:.1f} req/s "
            f"vs process {ab['process']['throughput_rps']:.1f} req/s "
            f"(speedup {ab['speedup']}x, floor {ab['required_speedup']}x "
            f"on {ab['cpus']} cores), drift "
            f"{ab['drift']['mismatches']}/{ab['drift']['compared']}",
            file=sys.stderr,
        )
        for violation in ab["violations"]:
            print(f"executor A/B VIOLATION: {violation}", file=sys.stderr)

    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"{measurement['requests']} requests, "
        f"{measurement['errors']} errors, "
        f"{measurement['throughput_rps']:.1f} req/s, "
        f"p50={measurement['latency_p50_s'] * 1e3:.1f}ms "
        f"p95={measurement['latency_p95_s'] * 1e3:.1f}ms "
        f"p99={measurement['latency_p99_s'] * 1e3:.1f}ms",
        file=sys.stderr,
    )
    print(f"report written to {out_path}", file=sys.stderr)

    ok = measurement["errors"] == 0
    if not ok:
        print("SERVING FAILED: non-2xx or failed responses", file=sys.stderr)
    if not overload_ok:
        print("SERVING FAILED: overload gate violations", file=sys.stderr)
        ok = False
    if not ab_ok:
        print("SERVING FAILED: executor A/B gate violations", file=sys.stderr)
        ok = False
    if args.compare is not None:
        baseline = json.loads(Path(args.compare).read_text())
        ok &= compare_against_baseline(report, baseline)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
