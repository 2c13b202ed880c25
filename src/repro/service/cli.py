"""Serving CLI: ``repro-serve <requests.jsonl> [options]``.

Executes a JSONL request file against the dataset catalog and emits one
JSONL response per request, in request order.  Each input line is a
:meth:`repro.service.requests.MatchRequest.to_dict` payload::

    {"dataset": "citeseer", "query": {"labels": [0, 1, 0],
     "edges": [[0, 1], [1, 2]]}, "match_limit": 1000, "tag": "q-17"}

Responses are :meth:`repro.service.requests.MatchResponse.to_dict`
payloads; failed requests carry an ``"error"`` field instead of
results.  A trailing stats snapshot goes to stderr (or stdout as JSON
with ``--stats``), so pipelines can split data from telemetry.

Examples
--------
::

    repro-serve requests.jsonl --output responses.jsonl
    repro-serve requests.jsonl --datasets citeseer,yeast --workers 8
    repro-serve requests.jsonl --stats > responses_and_stats.jsonl
    repro-serve requests.jsonl --stats-json stats.json
    repro-serve requests.jsonl --scheduler --default-deadline 10 \
        --tenant-max-inflight 4

With ``--scheduler`` the batch is admitted through the cost-aware
priority queue (:mod:`repro.service.scheduler`) instead of FIFO
fan-out: requests carrying ``tenant`` / ``priority`` / ``deadline_s``
fields are budgeted, ordered by (deadline, estimated plan cost) and
fail fast with the stable ``rejected`` / ``deadline_expired`` codes;
served results stay bit-identical to the direct path.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.service.cache import DEFAULT_CACHE_BYTES
from repro.service.requests import MatchRequest
from repro.service.scheduler import SchedulerConfig
from repro.service.service import MatchService

__all__ = ["add_scheduler_arguments", "main", "scheduler_config_from_args"]


def add_scheduler_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared ``--scheduler`` flag family (serve + server CLIs)."""
    group = parser.add_argument_group(
        "scheduling",
        "cost-aware admission (repro.service.scheduler); all knobs are "
        "inert without --scheduler",
    )
    group.add_argument(
        "--scheduler", action="store_true",
        help="admit requests through the cost-aware priority queue "
        "(deadline-then-estimated-cost order, per-tenant budgets, 429-style "
        "backpressure) instead of FIFO fan-out",
    )
    group.add_argument(
        "--sched-workers", type=int, default=SchedulerConfig.workers,
        metavar="N", help="scheduler worker threads",
    )
    group.add_argument(
        "--scheduler-executor", choices=("thread", "process"),
        default=SchedulerConfig.executor, metavar="{thread,process}",
        help="execution tier behind the scheduler: 'thread' runs Phase (3) "
        "in-process (GIL-serialized), 'process' dispatches to the "
        "repro.procpool worker pool for CPU parallelism; results are "
        "bit-identical either way",
    )
    group.add_argument(
        "--process-workers", type=int, default=SchedulerConfig.process_workers,
        metavar="N",
        help="worker-process count for --scheduler-executor process",
    )
    group.add_argument(
        "--durable-queue", default=None, metavar="PATH",
        help="sqlite journal for admitted-but-unserved requests: entries "
        "survive a crash and are re-admitted (with attempts bumped) on the "
        "next start",
    )
    group.add_argument(
        "--queue-capacity", type=int, default=SchedulerConfig.queue_capacity,
        metavar="N",
        help="bounded admission-queue depth; past it requests are rejected",
    )
    group.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="queueing deadline for requests that carry none "
        "(default: wait indefinitely)",
    )
    group.add_argument(
        "--tenant-max-inflight", type=int, default=None, metavar="N",
        help="per-tenant cap on admitted-but-unfinished requests",
    )
    group.add_argument(
        "--tenant-cost-budget", type=float, default=None, metavar="COST",
        help="per-tenant cap on summed in-flight estimated plan cost",
    )
    group.add_argument(
        "--no-degrade", action="store_true",
        help="disable the one retry under tighter limits after a timeout",
    )
    group.add_argument(
        "--degrade-match-limit", type=int,
        default=SchedulerConfig.degrade_match_limit, metavar="N",
        help="match limit of the degraded retry envelope",
    )
    group.add_argument(
        "--degrade-time-limit", type=float, default=None, metavar="SECONDS",
        help="time limit of the degraded retry envelope",
    )
    group.add_argument(
        "--degrade-orderer", default=None, metavar="NAME",
        help="cheaper orderer for the degraded retry (registry name)",
    )


def scheduler_config_from_args(args) -> SchedulerConfig | None:
    """A :class:`SchedulerConfig` from parsed flags (``None`` without
    ``--scheduler``)."""
    if not args.scheduler:
        return None
    return SchedulerConfig(
        workers=args.sched_workers,
        executor=args.scheduler_executor,
        process_workers=args.process_workers,
        durable_path=args.durable_queue,
        queue_capacity=args.queue_capacity,
        default_deadline_s=args.default_deadline,
        tenant_max_inflight=args.tenant_max_inflight,
        tenant_cost_budget=args.tenant_cost_budget,
        retry_degrade=not args.no_degrade,
        degrade_match_limit=args.degrade_match_limit,
        degrade_time_limit=args.degrade_time_limit,
        degrade_orderer=args.degrade_orderer,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Execute a JSONL match-request file against the dataset catalog.",
    )
    parser.add_argument(
        "requests", help="path to the JSONL request file ('-' for stdin)"
    )
    parser.add_argument(
        "--output", default=None,
        help="where to write JSONL responses (default: stdout)",
    )
    parser.add_argument(
        "--datasets", default=None,
        help="comma-separated catalog restriction (default: full registry)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="thread-pool width for concurrent execution",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES,
        help="plan-cache byte budget",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="append a {'stats': ...} JSON line after the responses",
    )
    parser.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="also write the final stats snapshot to PATH as JSON",
    )
    add_scheduler_arguments(parser)
    return parser


def _read_requests(path: str) -> list[MatchRequest]:
    """Parse the JSONL request file (skipping blank lines)."""
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    requests = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            requests.append(MatchRequest.from_dict(json.loads(line)))
        except (json.JSONDecodeError, ReproError) as exc:
            raise ReproError(f"request line {lineno}: {exc}") from exc
    return requests


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit code 0 when every request was served, 1 when any response
    carries an error (the responses are still all emitted) or the
    request file is malformed.
    """
    args = _build_parser().parse_args(argv)
    try:
        requests = _read_requests(args.requests)
    except (OSError, ReproError) as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 1

    datasets = (
        [name.strip() for name in args.datasets.split(",") if name.strip()]
        if args.datasets is not None
        else None
    )
    service = MatchService(
        catalog=datasets, cache_bytes=args.cache_bytes, max_workers=args.workers,
        scheduler=scheduler_config_from_args(args),
    )
    responses = service.submit_many(requests)
    service.close()

    out = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        for response in responses:
            out.write(json.dumps(response.to_dict(), sort_keys=True) + "\n")
        if args.stats:
            out.write(
                json.dumps({"stats": service.stats().to_dict()}, sort_keys=True)
                + "\n"
            )
    finally:
        if args.output:
            out.close()

    stats = service.stats()
    if args.stats_json is not None:
        with open(args.stats_json, "w", encoding="utf-8") as handle:
            json.dump(stats.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    failed = sum(1 for r in responses if not r.ok)
    summary = (
        f"repro-serve: {len(responses)} responses "
        f"({failed} failed), cache hit rate "
        f"{stats.cache.hit_rate:.0%}, p95 latency {stats.latency_p95_s * 1e3:.1f}ms"
    )
    if stats.scheduler is not None:
        sched = stats.scheduler
        summary += (
            f"; scheduler: {sched['completed']} completed, "
            f"{sched['rejected']} rejected, {sched['expired']} expired, "
            f"{sched['degraded']} degraded"
        )
    print(summary, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
