"""Structured request/response payloads for :class:`MatchService`.

The service boundary speaks *data*, not method calls: a
:class:`MatchRequest` names a dataset, carries a query graph, and may
override the per-request execution envelope (match limit, time limit,
orderer, recorded matches); a :class:`MatchResponse` carries everything a
client needs — counts, the matching order and any recorded embeddings
expressed in the *client's* vertex numbering (the service canonicalizes
queries internally), per-phase timings, the plan fingerprint and
whether the plan cache served it.  Both round-trip through
JSON-compatible dicts, which is what ``POST /match`` reads and writes;
the response body is printed by :meth:`MatchResponse.to_json`, with the
recorded matches encoded straight from their array.

``UNSET`` distinguishes "use the dataset's configured default" from an
explicit ``None`` (which, for the limits, means *unlimited*) — a
distinction a plain ``None`` default could not express.

This module is also the single home of the service's **error
envelope**: every failure the serving stack reports — an exception
raised from :meth:`MatchService.submit`, a captured batch failure from
:meth:`MatchService.submit_many`, a structured JSON error from the HTTP
tier, or a scheduler rejection — serializes to the same
``{"error": ..., "code": ...}`` shape, with the stable ``code``
vocabulary and its HTTP status mapping defined once in
:data:`ERROR_HTTP_STATUS`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

from repro.api.plan import graph_from_payload, graph_payload
from repro.errors import ReproError
from repro.graphs.graph import Graph
from repro.matching.block import MatchBlock

__all__ = [
    "ERROR_HTTP_STATUS",
    "UNSET",
    "MatchRequest",
    "MatchResponse",
    "ServiceError",
    "error_code_for",
    "error_payload",
    "http_status_for",
]


class _Unset:
    """Sentinel type for "not specified" (vs an explicit ``None``)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"

    def __bool__(self) -> bool:
        return False


#: "Use the dataset's configured default" marker for request overrides.
UNSET = _Unset()


# ----------------------------------------------------------------------
# The one error envelope
# ----------------------------------------------------------------------

#: Stable error-code vocabulary → HTTP status.  This table is the single
#: source of truth for status mapping: the HTTP tier, batch capture and
#: the scheduler all derive their error surfaces from it.
ERROR_HTTP_STATUS: dict[str, int] = {
    "validation": 400,  # malformed / unknown-name requests
    "rejected": 429,  # admission backpressure (queue or tenant cap full)
    "deadline_expired": 504,  # expired while queued, never ran
    "timeout": 504,  # ran, hit its time limit, degrade exhausted
    "internal": 500,  # anything else
}


def http_status_for(code: str | None) -> int:
    """HTTP status for an error ``code`` (500 for unknown/missing)."""
    return ERROR_HTTP_STATUS.get(code or "internal", 500)


class ServiceError(ReproError):
    """A service-level failure carrying a stable machine-readable code.

    The serving stack raises (or captures) these for conditions that are
    *operational* rather than malformed input: admission rejection,
    queue-deadline expiry.  ``retry_after_s``, when set, surfaces as the
    HTTP ``Retry-After`` header on 429 responses.

    Examples
    --------
    >>> exc = ServiceError("queue full", code="rejected", retry_after_s=1.0)
    >>> exc.code, exc.retry_after_s
    ('rejected', 1.0)
    >>> http_status_for(exc.code)
    429
    """

    def __init__(
        self,
        message: str,
        *,
        code: str = "internal",
        retry_after_s: float | None = None,
    ):
        super().__init__(message)
        if code not in ERROR_HTTP_STATUS:
            raise ValueError(
                f"unknown error code {code!r}; expected one of "
                f"{sorted(ERROR_HTTP_STATUS)}"
            )
        self.code = code
        self.retry_after_s = retry_after_s


def error_code_for(error: BaseException) -> str:
    """The stable code an exception maps to.

    :class:`ServiceError` carries its own; any other
    :class:`~repro.errors.ReproError` is an invalid request
    (``validation``); everything else is ``internal``.
    """
    if isinstance(error, ServiceError):
        return error.code
    if isinstance(error, ReproError):
        return "validation"
    return "internal"


def error_payload(error: BaseException | str, *, code: str | None = None) -> dict:
    """The one serializable error envelope.

    Every error surface in the stack (HTTP bodies, captured batch
    failures) is this dict: ``error`` (human message),
    ``code`` (stable, from :data:`ERROR_HTTP_STATUS`'s vocabulary) and,
    when the failure is retryable backpressure, ``retry_after_s``.

    >>> error_payload(ServiceError("full", code="rejected", retry_after_s=2))
    {'error': 'full', 'code': 'rejected', 'retry_after_s': 2.0}
    """
    if isinstance(error, BaseException):
        payload = {"error": str(error), "code": code or error_code_for(error)}
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after is not None:
            payload["retry_after_s"] = float(retry_after)
        return payload
    return {"error": str(error), "code": code or "internal"}


@dataclass(frozen=True)
class MatchRequest:
    """One unit of work for :meth:`MatchService.submit`.

    Attributes
    ----------
    dataset:
        Catalog name of the data graph to match against.
    query:
        The query graph, in the client's own vertex numbering.
    match_limit / time_limit:
        Per-request execution envelope; :data:`UNSET` inherits the
        dataset's configured defaults, ``None`` means unlimited.
    orderer:
        Registry name overriding the dataset's configured orderer for
        this request (plans cache separately per orderer).
    record_matches:
        Materialize embeddings into :attr:`MatchResponse.matches`.
    tag:
        Opaque client correlation id, echoed on the response.
    tenant:
        Accounting principal for the scheduler's per-tenant in-flight
        cap and counters; ``None`` bills the default tenant.  Ignored on
        the unscheduled direct path.
    priority:
        Scheduling priority class; higher runs earlier.  Within one
        class the queue orders by (deadline, estimated plan cost).
    deadline_s:
        Relative queueing deadline in seconds: if the request is still
        queued this long after admission it fails fast with
        ``deadline_expired`` instead of occupying a worker.  ``None``
        means no deadline; otherwise it must be positive (``inf`` is
        allowed), else construction raises
        :class:`~repro.errors.ReproError` (``validation``).  The
        deadline never caps *execution* — a request that started keeps
        its exact ``time_limit`` envelope, preserving bit-identity.
    """

    dataset: str
    query: Graph
    match_limit: Any = UNSET
    time_limit: Any = UNSET
    orderer: str | None = None
    record_matches: bool = False
    tag: str | None = None
    tenant: str | None = None
    priority: int = 0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ReproError(
                f"deadline_s must be positive, got {self.deadline_s!r}"
            )

    def to_dict(self) -> dict:
        """JSON-compatible payload (the ``POST /match`` body)."""
        payload: dict = {"dataset": self.dataset, "query": graph_payload(self.query)}
        if self.match_limit is not UNSET:
            payload["match_limit"] = self.match_limit
        if self.time_limit is not UNSET:
            payload["time_limit"] = self.time_limit
        if self.orderer is not None:
            payload["orderer"] = self.orderer
        if self.record_matches:
            payload["record_matches"] = True
        if self.tag is not None:
            payload["tag"] = self.tag
        if self.tenant is not None:
            payload["tenant"] = self.tenant
        if self.priority != 0:
            payload["priority"] = int(self.priority)
        if self.deadline_s is not None:
            payload["deadline_s"] = float(self.deadline_s)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MatchRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Absent limit keys mean :data:`UNSET` (dataset defaults); an
        explicit JSON ``null`` means unlimited, mirroring ``None``.
        Absent scheduling keys take the cost-free defaults, so payloads
        written by pre-scheduler clients parse unchanged.  Unknown keys
        are ignored — among them ``"enumerator"``, which older clients
        may still carry from when there was a backend to choose; the
        outcome never depended on it.  So is a legacy ``"stream": true``,
        except that it asks for what it always returned: the recorded
        matches.

        Every field's JSON type is checked here, so a wrongly typed
        value is a :class:`~repro.errors.ReproError` (``validation``),
        never a ``TypeError`` further in.  ``priority`` must be an
        integer (never a string, float or bool); ``record_matches`` and
        ``stream`` must be bools (``"false"`` is not false); the query's
        labels and edge endpoints must be integers
        (:func:`~repro.api.plan.graph_from_payload`); and no number may
        be ``NaN``, which :func:`json.loads` accepts: a ``NaN`` deadline
        would never expire and would break the admission queue's order.
        """
        number = (int, float)
        try:
            deadline_s = _checked(payload, "deadline_s", number, "a number")
            priority = _checked(payload, "priority", int, "an integer", 0)
            return cls(
                dataset=_checked(payload, "dataset", str, "a string", _REQUIRED),
                query=graph_from_payload(payload["query"]),
                match_limit=_checked(payload, "match_limit", int, "an integer", UNSET),
                time_limit=_checked(payload, "time_limit", number, "a number", UNSET),
                orderer=_checked(payload, "orderer", str, "a string"),
                record_matches=bool(
                    _checked(payload, "record_matches", bool, "a bool")
                    or _checked(payload, "stream", bool, "a bool")
                ),
                tag=_checked(payload, "tag", str, "a string"),
                tenant=_checked(payload, "tenant", str, "a string"),
                priority=0 if priority is None else priority,
                deadline_s=None if deadline_s is None else float(deadline_s),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed match-request payload: {exc}") from exc


#: ``_checked``'s default for a key that must be present (and not null).
_REQUIRED = object()


def _checked(payload: dict, key: str, types, expected: str, default=None):
    """``payload[key]`` if its JSON type is ``expected``; ``default`` when
    absent.  An optional key may also be ``null``; a bool is only ever a
    bool, never a number, and ``NaN`` is never a value."""
    if key not in payload:
        if default is _REQUIRED:
            raise KeyError(key)
        return default
    value = payload[key]
    if value is None and default is not _REQUIRED:
        return None
    if isinstance(value, bool) is not (types is bool) or not isinstance(
        value, types
    ):
        raise ReproError(
            f"malformed match-request payload: {key!r} must be {expected}, "
            f"got {type(value).__name__}"
        )
    if isinstance(value, float) and math.isnan(value):
        raise ReproError(
            f"malformed match-request payload: {key!r} must be {expected}, "
            "got NaN"
        )
    return value


@dataclass(frozen=True)
class MatchResponse:
    """Outcome of one request, in the client's vertex numbering.

    Attributes
    ----------
    dataset / tag:
        Echoed from the request.
    fingerprint:
        Canonical isomorphism-class fingerprint of the query — the
        plan-cache key, stable across processes.
    cache_hit:
        Whether the plan cache served Phases (1)–(2).
    order:
        The matching order as a sequence of the *client's* query vertex
        ids (positions in the order, translated back through the
        canonical mapping).
    num_matches / num_enumerations / timed_out / limit_reached:
        The enumeration outcome (Def. II.5–II.6 semantics).
    matches:
        Embeddings indexed by the client's query vertex ids; populated
        only when the request asked for matches.  Stored as one
        read-only ``(k, n)`` int64 array
        (:class:`~repro.matching.block.MatchBlock` — the constructor
        turns an integer array or a tuple/list of per-match integer
        sequences into one, and raises ``TypeError`` on anything
        else) that :meth:`to_json` prints straight into the response
        body and :meth:`to_dict` turns into nested lists with one
        ``tolist()``; read, it is the immutable sequence of tuples of
        ``int`` it stands for, derived from the array on first use.
    filter_time / order_time:
        Planning cost *recorded on the plan* — on a cache hit this is
        the historical, once-paid cost, not new work.
    enum_time / total_time:
        Phase (3) wall clock, and end-to-end request latency.
    error / error_code:
        Failure description when the request could not be served
        (capture mode of ``submit_many``, scheduler rejections and
        expiries); every other payload field is zeroed.  ``error_code``
        is the stable code from :data:`ERROR_HTTP_STATUS`'s vocabulary.
    queue_time_s / attempts / degraded:
        Scheduling surface: seconds spent queued before a worker picked
        the request up (0.0 on the direct path), how many execution
        attempts ran, and whether the served result came from the
        degraded retry envelope (a tighter match limit) after the first
        attempt timed out.
    executor:
        Which execution tier served a *scheduled* request ("thread" or
        "process"); ``None`` — kept off the wire — on the direct path.
        Purely diagnostic: results are bit-identical across tiers.
    """

    dataset: str
    fingerprint: str
    cache_hit: bool
    order: tuple[int, ...]
    num_matches: int
    num_enumerations: int
    timed_out: bool
    limit_reached: bool
    matches: MatchBlock
    filter_time: float
    order_time: float
    enum_time: float
    total_time: float
    tag: str | None = None
    error: str | None = None
    error_code: str | None = None
    queue_time_s: float = 0.0
    attempts: int = 1
    degraded: bool = False
    executor: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "matches", MatchBlock(self.matches))

    @classmethod
    def failure(
        cls,
        request: MatchRequest,
        error: BaseException | str,
        *,
        code: str | None = None,
    ) -> "MatchResponse":
        """An error response echoing the request's routing fields.

        ``error`` may be the exception itself — preferred, because the
        stable :attr:`error_code` is then derived through
        :func:`error_code_for` — or a bare message with an explicit
        ``code``.
        """
        if isinstance(error, BaseException):
            resolved = code or error_code_for(error)
            message = str(error)
        else:
            resolved = code or "internal"
            message = str(error)
        return cls(
            dataset=request.dataset,
            fingerprint="",
            cache_hit=False,
            order=(),
            num_matches=0,
            num_enumerations=0,
            timed_out=False,
            limit_reached=False,
            matches=(),
            filter_time=0.0,
            order_time=0.0,
            enum_time=0.0,
            total_time=0.0,
            tag=request.tag,
            error=message,
            error_code=resolved,
        )

    @property
    def ok(self) -> bool:
        """Whether the request was served (no :attr:`error`)."""
        return self.error is None

    def _fields(self) -> dict:
        """Every wire field, with the block itself at ``"matches"``."""
        payload = {
            "dataset": self.dataset,
            "fingerprint": self.fingerprint,
            "cache_hit": bool(self.cache_hit),
            "order": [int(u) for u in self.order],
            "num_matches": int(self.num_matches),
            "num_enumerations": int(self.num_enumerations),
            "timed_out": bool(self.timed_out),
            "limit_reached": bool(self.limit_reached),
            "matches": self.matches,
            "filter_time": float(self.filter_time),
            "order_time": float(self.order_time),
            "enum_time": float(self.enum_time),
            "total_time": float(self.total_time),
            "queue_time_s": float(self.queue_time_s),
            "attempts": int(self.attempts),
            "degraded": bool(self.degraded),
        }
        if self.tag is not None:
            payload["tag"] = self.tag
        if self.error is not None:
            payload["error"] = self.error
        if self.error_code is not None:
            payload["code"] = self.error_code
        if self.executor is not None:
            payload["executor"] = self.executor
        return payload

    def to_dict(self) -> dict:
        """JSON-compatible payload: what :meth:`to_json` encodes, and
        the process pool's pipe format."""
        payload = self._fields()
        payload["matches"] = self.matches.tolist()
        return payload

    def to_json(self) -> bytes:
        """The ``POST /match`` response body:
        ``json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")``.

        The block prints itself (:meth:`MatchBlock.to_json`) between the
        keys that sort before ``"matches"`` and those after it; only
        those go through :func:`json.dumps`.

        >>> from repro.graphs import Graph
        >>> failed = MatchResponse.failure(MatchRequest("d", Graph([0], [])), "x")
        >>> failed.to_json() == json.dumps(failed.to_dict(), sort_keys=True).encode()
        True
        """
        fields = self._fields()
        matches = fields.pop("matches").to_json()
        # Neither side is ever empty: "dataset" sorts before "matches",
        # "num_matches" after it.
        before = json.dumps(
            {key: value for key, value in fields.items() if key < "matches"},
            sort_keys=True,
        )
        after = json.dumps(
            {key: value for key, value in fields.items() if key > "matches"},
            sort_keys=True,
        )
        return b'%s, "matches": %s, %s' % (
            before[:-1].encode(), matches, after[1:].encode()
        )

    @classmethod
    def from_dict(cls, payload: dict) -> "MatchResponse":
        """Rebuild a response from :meth:`to_dict` output."""
        try:
            return cls(
                dataset=payload["dataset"],
                fingerprint=payload["fingerprint"],
                cache_hit=bool(payload["cache_hit"]),
                order=tuple(int(u) for u in payload["order"]),
                num_matches=int(payload["num_matches"]),
                num_enumerations=int(payload["num_enumerations"]),
                timed_out=bool(payload["timed_out"]),
                limit_reached=bool(payload["limit_reached"]),
                matches=payload["matches"],
                filter_time=float(payload["filter_time"]),
                order_time=float(payload["order_time"]),
                enum_time=float(payload["enum_time"]),
                total_time=float(payload["total_time"]),
                tag=payload.get("tag"),
                error=payload.get("error"),
                error_code=payload.get("code"),
                queue_time_s=float(payload.get("queue_time_s", 0.0)),
                attempts=int(payload.get("attempts", 1)),
                degraded=bool(payload.get("degraded", False)),
                executor=payload.get("executor"),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ReproError(f"malformed match-response payload: {exc}") from exc
