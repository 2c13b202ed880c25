"""HTTP serving CLI: ``repro-server [options]``.

Stands a :class:`~repro.server.http.MatchServer` in front of a
:class:`~repro.service.MatchService` built from the dataset registry
(or a ``--datasets`` restriction) and serves until interrupted.

The first stdout line is a JSON announcement of the bound address —
``{"listening": {"host": ..., "port": ...}}`` — which is how scripts
(CI's serve-smoke job) discover the port when ``--port 0`` lets the OS
pick one; all human-facing logging goes to stderr.

With ``--scheduler`` the service gains the cost-aware admission tier:
``POST /match`` requests are queued by (priority, deadline, estimated
plan cost) under an optional per-tenant in-flight cap; backpressure
answers ``429 Too Many Requests`` + ``Retry-After`` and queue-deadline
expiries answer 504, both carrying the stable error ``code``.

Examples
--------
::

    repro-server --datasets citeseer --port 8080
    repro-server --port 0 --max-concurrency 16
    repro-server --scheduler --sched-workers 4 --tenant-max-inflight 8
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.server.http import DEFAULT_CONCURRENCY, MatchServer
from repro.service.cache import DEFAULT_CACHE_BYTES
from repro.service.scheduler import SchedulerConfig
from repro.service.service import MatchService

__all__ = ["add_scheduler_arguments", "main", "scheduler_config_from_args"]


def add_scheduler_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--scheduler`` flag family."""
    group = parser.add_argument_group(
        "scheduling",
        "cost-aware admission (repro.service.scheduler); all knobs are "
        "inert without --scheduler",
    )
    group.add_argument(
        "--scheduler", action="store_true",
        help="admit requests through the cost-aware priority queue "
        "(deadline-then-estimated-cost order, per-tenant in-flight cap, "
        "429-style backpressure) instead of FIFO fan-out",
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
        "--queue-capacity", type=int, default=SchedulerConfig.queue_capacity,
        metavar="N",
        help="bounded admission-queue depth; past it requests are rejected",
    )
    group.add_argument(
        "--tenant-max-inflight", type=int, default=None, metavar="N",
        help="per-tenant cap on admitted-but-unfinished requests",
    )
    group.add_argument(
        "--no-degrade", action="store_true",
        help="disable the one retry under a tighter match limit after a "
        "timeout",
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
        queue_capacity=args.queue_capacity,
        tenant_max_inflight=args.tenant_max_inflight,
        retry_degrade=not args.no_degrade,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-server",
        description="Serve subgraph-matching over HTTP (asyncio, stdlib-only).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080,
        help="bind port (0 lets the OS pick; see the stdout announcement)",
    )
    parser.add_argument(
        "--datasets", default=None,
        help="comma-separated catalog restriction (default: full registry)",
    )
    parser.add_argument(
        "--max-concurrency", type=int, default=DEFAULT_CONCURRENCY,
        help="simultaneously executing HTTP match requests",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES,
        help="plan-cache byte budget",
    )
    add_scheduler_arguments(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    datasets = (
        [name.strip() for name in args.datasets.split(",") if name.strip()]
        if args.datasets is not None
        else None
    )
    try:
        service = MatchService(
            catalog=datasets,
            cache_bytes=args.cache_bytes,
            scheduler=scheduler_config_from_args(args),
        )
        server = MatchServer(
            service, host=args.host, port=args.port,
            max_concurrency=args.max_concurrency,
        )
    except (ReproError, ValueError, OSError) as exc:
        print(f"repro-server: {exc}", file=sys.stderr)
        return 1

    import asyncio

    async def _serve() -> None:
        await server.start()
        host, port = server.address
        print(
            json.dumps({"listening": {"host": host, "port": port}}),
            flush=True,
        )
        print(
            f"repro-server: serving {len(service.catalog)} dataset(s) at "
            f"http://{host}:{port} "
            f"(scheduler: {'on' if service.scheduler is not None else 'off'})",
            file=sys.stderr,
        )
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro-server: interrupted, shutting down", file=sys.stderr)
    except OSError as exc:
        print(f"repro-server: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
