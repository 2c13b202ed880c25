r"""Minimal HTTP/1.1 wire helpers for the asyncio serving tier.

The server (:mod:`repro.server.http`) needs exactly three things from
HTTP: parse a request head, frame a response, and decide whether the
connection survives the exchange.  This module owns those as *pure*
byte-level functions — no sockets, no asyncio — so the framing rules
are unit-testable with plain byte strings
(``tests/server/test_protocol.py``) and the async layer above stays
free of parsing code.

Scope is deliberately narrow: HTTP/1.0 and 1.1 requests, ``identity``
request bodies sized by ``Content-Length`` (the JSON payloads the
service speaks), sized responses.  Anything outside that — a chunked
request body, an unsupported version, an oversized head — raises
:class:`ProtocolError` carrying the status code the server should
answer with before closing.

Examples
--------
>>> head = parse_head(
...     b"POST /match HTTP/1.1\r\n"
...     b"Host: x\r\nContent-Length: 2\r\n\r\n"
... )
>>> head.method, head.path, head.content_length, head.keep_alive
('POST', '/match', 2, True)
>>> format_response(204).splitlines()[0]
b'HTTP/1.1 204 No Content'
"""

from __future__ import annotations

from dataclasses import dataclass, field
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ReproError

__all__ = [
    "MAX_BODY_BYTES",
    "MAX_HEAD_BYTES",
    "ProtocolError",
    "RequestHead",
    "format_response",
    "parse_head",
]

#: Upper bound on the request head (request line + headers) — a client
#: that has not produced ``\r\n\r\n`` within this many bytes is broken
#: or hostile and is answered 400.
MAX_HEAD_BYTES = 64 * 1024

#: Upper bound on a request body.  Query graphs are a few KiB of JSON;
#: the limit exists so one client cannot balloon server memory.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Reason phrases for the statuses the server actually emits.
REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

class ProtocolError(ReproError):
    """A malformed or unsupported HTTP exchange.

    Carries the ``status`` the server should answer with (default 400)
    before closing the connection — parsing failures never take a
    worker down, they fail the one connection that caused them.
    """

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = int(status)


@dataclass(frozen=True)
class RequestHead:
    """Parsed request line + headers of one HTTP request.

    ``headers`` keys are lower-cased (HTTP header names are
    case-insensitive); duplicate headers keep the last value, which is
    sufficient for the small header vocabulary this server reads.
    """

    method: str
    target: str
    path: str
    query: dict = field(default_factory=dict)
    version: str = "HTTP/1.1"
    headers: dict = field(default_factory=dict)

    @property
    def content_length(self) -> int:
        """Declared body size (0 when absent); 400/413 on bad values."""
        raw = self.headers.get("content-length")
        if raw is None:
            return 0
        try:
            length = int(raw)
        except ValueError as exc:
            raise ProtocolError(f"bad Content-Length: {raw!r}") from exc
        if length < 0:
            raise ProtocolError(f"bad Content-Length: {raw!r}")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES}-byte "
                f"limit", status=413,
            )
        return length

    @property
    def keep_alive(self) -> bool:
        """Whether the connection persists after the response.

        HTTP/1.1 defaults to persistent unless ``Connection: close``;
        HTTP/1.0 defaults to closing unless ``Connection: keep-alive``.
        """
        token = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return token == "keep-alive"
        return token != "close"


def parse_head(head: bytes) -> RequestHead:
    """Parse the request head (everything up to and incl. the blank line).

    Raises :class:`ProtocolError` on anything that is not a well-formed
    HTTP/1.0 or HTTP/1.1 request head: missing parts of the request
    line, an unsupported version, a header line without a colon, or a
    chunked request body (unsupported by design — clients send sized
    JSON bodies).
    """
    if len(head) > MAX_HEAD_BYTES:
        raise ProtocolError("request head exceeds the size limit", status=413)
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
        raise ProtocolError("undecodable request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise ProtocolError(f"malformed request line: {lines[0]!r}")
    method, target, version = parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise ProtocolError(f"unsupported HTTP version: {version!r}")
    if not target.startswith("/"):
        raise ProtocolError(f"unsupported request target: {target!r}")
    headers: dict = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise ProtocolError(f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise ProtocolError("chunked request bodies are not supported")
    split = urlsplit(target)
    return RequestHead(
        method=method,
        target=target,
        path=split.path,
        query=dict(parse_qsl(split.query)),
        version=version,
        headers=headers,
    )


def _status_line(status: int) -> bytes:
    reason = REASONS.get(status, "Unknown")
    return f"HTTP/1.1 {status} {reason}\r\n".encode("latin-1")


def format_response(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    close: bool = False,
    extra_headers: dict | None = None,
) -> bytes:
    """One complete, sized (``Content-Length``) HTTP/1.1 response.

    ``extra_headers`` adds response headers verbatim (e.g.
    ``{"Retry-After": "1"}`` on a 429 rejection).
    """
    head = _status_line(status)
    head += f"Content-Length: {len(body)}\r\n".encode("latin-1")
    if body:
        head += f"Content-Type: {content_type}\r\n".encode("latin-1")
    if extra_headers:
        for name, value in extra_headers.items():
            head += f"{name}: {value}\r\n".encode("latin-1")
    head += b"Connection: close\r\n" if close else b"Connection: keep-alive\r\n"
    return head + b"\r\n" + body

