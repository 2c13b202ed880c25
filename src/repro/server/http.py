"""Asyncio HTTP front end over a :class:`~repro.service.MatchService`.

The service layer is a thread-safe Python object; this module puts a
network boundary in front of it with nothing but the standard library:
an :mod:`asyncio` accept loop (``asyncio.start_server``), the pure
framing helpers of :mod:`repro.server.protocol`, and a bounded thread
pool the blocking matching work runs on (``run_in_executor`` under an
``asyncio.Semaphore``) so slow enumerations never stall the event loop
or each other beyond the configured concurrency.

Routes
------
``POST /match``
    One :class:`~repro.service.requests.MatchRequest` JSON body in, one
    :class:`~repro.service.requests.MatchResponse` JSON body out.  The
    request's per-call overrides (``match_limit`` / ``time_limit`` /
    ``orderer``) apply exactly as in direct
    :meth:`~repro.service.service.MatchService.submit` calls.
``GET /stats``
    The service's :class:`~repro.service.service.ServiceStats` snapshot
    plus the HTTP tier's own counters.
``GET /healthz``
    Executor-aware liveness: ``{"status", "datasets", "executor"}``
    with scheduler queue depth and process-pool worker liveness;
    answers 503 when the process pool is unrecoverably down.
``POST /admin/invalidate``
    Drop cached plans — ``{"dataset": "name"}`` for one scope, empty
    body for everything.

Error contract: malformed HTTP answers 400 and closes; every service
failure answers the one error envelope of
:mod:`repro.service.requests` — ``{"error": ..., "code": ...}`` (plus
a legacy ``type`` field) — with the HTTP status derived from the
stable ``code`` through the single
:data:`~repro.service.requests.ERROR_HTTP_STATUS` table: validation
errors 400, scheduler admission rejections **429 Too Many Requests**
with a ``Retry-After`` header, queue-deadline expiries 504, anything
unexpected 500.  Connections are HTTP/1.1 keep-alive.

When the fronted service carries a cost-aware scheduler
(``MatchService(..., scheduler=...)``), ``POST /match`` admits through
it: the handler holds an executor slot only for admission, then awaits
the scheduler future on the event loop — queued requests park without
pinning server threads, and the bounded queue (not the semaphore) is
the backpressure surface.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ReproError
from repro.server import protocol
from repro.service.requests import (
    MatchRequest,
    error_code_for,
    error_payload,
    http_status_for,
)
from repro.service.service import MatchService

__all__ = ["BackgroundServer", "MatchServer"]

#: Default cap on concurrently *executing* match requests (the accept
#: loop itself is not bounded — excess requests queue on the semaphore).
DEFAULT_CONCURRENCY = 8


def _json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


#: Default stable error code per HTTP status, for the protocol-level
#: error sites that start from a status rather than an exception.
_CODE_BY_STATUS = {500: "internal", 429: "rejected", 504: "timeout"}


def _error_payload(message: str, error_type: str, code: str | None = None) -> bytes:
    """The wire form of the one error envelope (+ legacy ``type``)."""
    payload = error_payload(message, code=code or "validation")
    payload["type"] = error_type
    return _json_bytes(payload)


class MatchServer:
    """The asyncio HTTP server; one instance fronts one service.

    Parameters
    ----------
    service:
        The :class:`~repro.service.MatchService` to expose.  Its
        documented thread-safety is what makes the shared executor
        sound.
    host / port:
        Bind address; port ``0`` asks the OS for a free port, readable
        from :attr:`address` after :meth:`start` (how tests and
        ``--self-host`` load runs avoid port collisions).
    max_concurrency:
        Simultaneously executing match requests; further requests wait
        on the semaphore (backpressure, not rejection).

    Examples
    --------
    >>> from repro.server import MatchServer          # doctest: +SKIP
    >>> server = MatchServer(service, port=8080)      # doctest: +SKIP
    >>> server.run()                                  # doctest: +SKIP
    """

    def __init__(
        self,
        service: MatchService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_concurrency: int = DEFAULT_CONCURRENCY,
    ):
        if max_concurrency <= 0:
            raise ValueError("max_concurrency must be positive")
        self.service = service
        self.host = host
        self.port = int(port)
        self.max_concurrency = int(max_concurrency)
        self._server: asyncio.base_events.Server | None = None
        self._semaphore: asyncio.Semaphore | None = None
        self._executor: ThreadPoolExecutor | None = None
        # Counters are only touched from the event loop — no lock.
        self._http_requests = 0
        self._responses: dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` actually bound (resolves port 0)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        """Bind and start accepting (returns once listening)."""
        self._semaphore = asyncio.Semaphore(self.max_concurrency)
        self._executor = ThreadPoolExecutor(
            max_workers=self.max_concurrency, thread_name_prefix="repro-http"
        )
        self._server = await asyncio.start_server(
            self._serve_client, self.host, self.port,
            limit=protocol.MAX_HEAD_BYTES,
        )
        self.port = self.address[1]

    async def serve_forever(self) -> None:
        """Serve until cancelled (call :meth:`start` first)."""
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        """Stop accepting and release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)

    def run(self) -> None:
        """Blocking convenience loop (the ``repro-server`` CLI body)."""

        async def _main() -> None:
            await self.start()
            await self.serve_forever()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: a keep-alive loop of request/response turns."""
        try:
            while True:
                try:
                    raw = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break  # clean EOF between requests
                except asyncio.LimitOverrunError:
                    await self._respond_error(
                        writer, 400, "request head too large", "ProtocolError",
                        close=True,
                    )
                    break
                try:
                    head = protocol.parse_head(raw)
                    body = await reader.readexactly(head.content_length)
                except protocol.ProtocolError as exc:
                    await self._respond_error(
                        writer, exc.status, str(exc), "ProtocolError", close=True
                    )
                    break
                except asyncio.IncompleteReadError:
                    break  # body truncated by disconnect
                self._http_requests += 1
                keep_alive = await self._dispatch(head, body, writer)
                if not keep_alive or not head.keep_alive:
                    break
        except (ConnectionError, BrokenPipeError):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # server shutdown cancelled a parked connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionError, BrokenPipeError, asyncio.CancelledError
            ):  # pragma: no cover - teardown noise only
                pass

    async def _dispatch(self, head, body: bytes, writer) -> bool:
        """Route one request; returns whether the connection survives."""
        route = (head.method, head.path)
        try:
            if route == ("GET", "/healthz"):
                payload = self._healthz()
                status = 200 if payload.get("status") == "ok" else 503
                return await self._respond(writer, status, _json_bytes(payload))
            if route == ("GET", "/stats"):
                return await self._respond(
                    writer, 200, _json_bytes(self._stats_payload())
                )
            if route == ("POST", "/match"):
                return await self._handle_match(body, writer)
            if route == ("POST", "/admin/invalidate"):
                return await self._handle_invalidate(body, writer)
            if head.path in ("/healthz", "/stats", "/match", "/admin/invalidate"):
                return await self._respond_error(
                    writer, 405, f"{head.method} not allowed on {head.path}",
                    "MethodNotAllowed",
                )
            return await self._respond_error(
                writer, 404, f"no such route: {head.path}", "NotFound"
            )
        except (ConnectionError, BrokenPipeError):
            raise
        except Exception as exc:  # noqa: BLE001 - the 500 boundary
            traceback.print_exc(file=sys.stderr)
            return await self._respond_error(
                writer, 500, str(exc), type(exc).__name__
            )

    async def _respond(
        self, writer, status: int, body: bytes, headers: dict | None = None,
        *, close: bool = False,
    ) -> bool:
        """Send one encoded JSON body; every response is counted here,
        the protocol-level errors that close the connection included."""
        self._responses[status] = self._responses.get(status, 0) + 1
        writer.write(protocol.format_response(
            status, body, close=close, extra_headers=headers
        ))
        await writer.drain()
        return True

    async def _respond_error(
        self, writer, status: int, message: str, error_type: str,
        *, close: bool = False,
    ) -> bool:
        body = _error_payload(
            message, error_type, code=_CODE_BY_STATUS.get(status)
        )
        return await self._respond(writer, status, body, close=close)

    async def _respond_exception(self, writer, exc: BaseException) -> bool:
        """Answer a service failure entirely from the one error table.

        The stable code picks the status
        (:func:`~repro.service.requests.http_status_for`); a rejection
        carrying ``retry_after_s`` surfaces it as the ``Retry-After``
        header (whole seconds, rounded up) alongside the JSON field.
        """
        code = error_code_for(exc)
        status = http_status_for(code)
        payload = error_payload(exc)
        payload["type"] = type(exc).__name__
        headers = None
        retry_after = payload.get("retry_after_s")
        if retry_after is not None:
            headers = {"Retry-After": str(max(1, int(-(-retry_after // 1))))}
        return await self._respond(writer, status, _json_bytes(payload), headers)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def _healthz(self) -> dict:
        """Executor-aware liveness payload (503 when ``status != ok``).

        Delegates to :meth:`MatchService.health`: worker liveness,
        queue depth and the process pool's state ride along, so a load
        balancer (or the load harness's pre-run poll) can distinguish
        "serving" from "process pool unrecoverably down" without
        issuing a real match request.
        """
        payload = self.service.health()
        payload["datasets"] = sorted(payload["datasets"])
        return payload

    def _stats_payload(self) -> dict:
        payload = self.service.stats().to_dict()
        payload["server"] = {
            "http_requests": int(self._http_requests),
            "responses": {
                str(code): int(count)
                for code, count in sorted(self._responses.items())
            },
            "max_concurrency": int(self.max_concurrency),
        }
        return payload

    @staticmethod
    def _parse_request_body(body: bytes) -> MatchRequest:
        try:
            payload = json.loads(body)
        except json.JSONDecodeError as exc:
            raise ReproError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ReproError("request body must be a JSON object")
        return MatchRequest.from_dict(payload)

    async def _handle_match(self, body: bytes, writer) -> bool:
        loop = asyncio.get_running_loop()
        try:
            request = self._parse_request_body(body)
            if self.service.scheduler is not None:
                # Scheduled path: the executor slot is held only for
                # admission (planning/cost estimation); the queued
                # request then parks on the event loop awaiting the
                # scheduler future, so a deep queue never pins server
                # threads.  Admission rejections and queue-deadline
                # expiries surface here as ServiceError and map to
                # 429/504 below.
                async with self._semaphore:
                    future = await loop.run_in_executor(
                        self._executor, self.service.submit_scheduled, request
                    )
                response = await asyncio.wrap_future(future)
            else:
                async with self._semaphore:
                    response = await loop.run_in_executor(
                        self._executor, self.service.submit, request
                    )
        except ReproError as exc:
            return await self._respond_exception(writer, exc)
        return await self._respond(writer, 200, response.to_json())

    async def _handle_invalidate(self, body: bytes, writer) -> bool:
        loop = asyncio.get_running_loop()
        dataset = None
        if body.strip():
            try:
                payload = json.loads(body)
            except json.JSONDecodeError as exc:
                return await self._respond_error(
                    writer, 400, f"invalid JSON body: {exc}", "ReproError"
                )
            if not isinstance(payload, dict):
                return await self._respond_error(
                    writer, 400, "body must be a JSON object", "ReproError"
                )
            dataset = payload.get("dataset")
            if dataset is not None and not isinstance(dataset, str):
                return await self._respond_error(
                    writer, 400, "'dataset' must be a string or null",
                    "ReproError",
                )
        try:
            dropped = await loop.run_in_executor(
                self._executor, self.service.invalidate, dataset
            )
        except ReproError as exc:
            return await self._respond_exception(writer, exc)
        return await self._respond(
            writer, 200, _json_bytes({"invalidated": int(dropped), "dataset": dataset})
        )


class BackgroundServer:
    """Context manager running a :class:`MatchServer` on a daemon thread.

    The pattern tests, examples and the load generator's ``--self-host``
    mode share: enter to get a listening server (its event loop runs on
    a private thread), read :attr:`address`, exit to shut it down.

    Examples
    --------
    >>> from repro.server import BackgroundServer     # doctest: +SKIP
    >>> with BackgroundServer(service) as bg:         # doctest: +SKIP
    ...     host, port = bg.address                   # doctest: +SKIP
    """

    def __init__(self, service: MatchService, **server_kwargs):
        self.server = MatchServer(service, **server_kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` of the running server."""
        return self.server.address

    @property
    def url(self) -> str:
        """``http://host:port`` of the running server."""
        host, port = self.address
        return f"http://{host}:{port}"

    def __enter__(self) -> "BackgroundServer":
        self._loop = asyncio.new_event_loop()

        def _run() -> None:
            asyncio.set_event_loop(self._loop)
            try:
                self._loop.run_until_complete(self.server.start())
            except BaseException as exc:  # noqa: BLE001 - reported to entrant
                self._startup_error = exc
                self._started.set()
                return
            self._started.set()
            try:
                self._loop.run_forever()
            finally:
                self._loop.run_until_complete(self.server.stop())
                # Connections still parked in their keep-alive loops
                # hold pending tasks; cancel and let them unwind before
                # the loop closes.
                pending = asyncio.all_tasks(self._loop)
                for task in pending:
                    task.cancel()
                if pending:
                    self._loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                self._loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):  # pragma: no cover - hang guard
            raise RuntimeError("server failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join(timeout=30)
