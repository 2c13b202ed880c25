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
plan cost) with per-tenant budgets; backpressure answers
``429 Too Many Requests`` + ``Retry-After`` and queue-deadline
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
from repro.service.cli import add_scheduler_arguments, scheduler_config_from_args
from repro.service.service import MatchService

__all__ = ["main"]


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
