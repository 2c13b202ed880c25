"""Persistent plan store: cross-process Phase (1)–(2) amortization.

The in-memory :class:`~repro.service.cache.PlanCache` dies with its
process, so every worker restart re-pays the filtering and ordering
phases for the whole warm set.  :class:`PlanStore` is the durable second
tier behind it: a single sqlite file (stdlib :mod:`sqlite3`, no new
runtime dependencies) keyed by the exact cache-key tuple — ``(scope,
filter, orderer, fingerprint)``, where the fingerprint is the
process-stable canonical isomorphism-class hash of
:func:`repro.graphs.canonical.canonical_fingerprint` — holding
:meth:`~repro.api.plan.QueryPlan.to_dict` payloads as JSON blobs.

A fresh process pointed at a populated store serves an isomorph of a
previously planned query as a *cache hit*: the payload deserializes into
a detached plan, the owning :class:`~repro.api.matcher.Matcher`
re-attaches it (rebuilding only the deterministic Phase (1) arrays, not
the ordering phase), and execution is bit-identical to cold planning on
match sequences and ``#enum`` — pinned by the cross-process subprocess
test in ``tests/server/``.

Robustness contract: a row written by an incompatible store schema, an
unreadable plan payload, or a plan-schema version this build cannot read
is treated as a **miss** (and quietly deleted), never an error — a stale
or corrupted store degrades to cold planning, it cannot take a serving
process down.  A whole *file* written under another
:data:`STORE_SCHEMA_VERSION` (read from sqlite's ``user_version``) has
its table dropped and recreated on open: every row in it was already a
miss.

Concurrency: one connection guarded by a lock per :class:`PlanStore`
instance (``check_same_thread=False``), WAL journaling so concurrent
worker *processes* sharing the file don't serialize reads behind writes.

Examples
--------
>>> from repro.server import PlanStore
>>> store = PlanStore(":memory:")
>>> key = ("scope", "gql", "ri", "fp:demo")
>>> store.put(key, {"version": 2, "order": [0, 1]})
>>> store.get(key)["order"]
[0, 1]
>>> store.stats().rows
1
>>> store.invalidate_scope("scope")
1
>>> store.get(key) is None
True
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass

__all__ = ["PlanStore", "PlanStoreStats", "STORE_SCHEMA_VERSION"]

#: Version tag written on every row and as the file's ``user_version``;
#: rows carrying any other value are served as misses (and dropped)
#: rather than parsed, and a file carrying any other value has its table
#: recreated on open.  Bump on incompatible layout changes of the table
#: or payload conventions.
#: v2: the key lost its layout column (four key columns, not five).
STORE_SCHEMA_VERSION = 2

_TABLE_DDL = """
CREATE TABLE IF NOT EXISTS plans (
    scope        TEXT NOT NULL,
    filter       TEXT NOT NULL,
    orderer      TEXT NOT NULL,
    fingerprint  TEXT NOT NULL,
    store_version INTEGER NOT NULL,
    plan_version  INTEGER NOT NULL,
    payload      TEXT NOT NULL,
    created_s    REAL NOT NULL,
    PRIMARY KEY (scope, filter, orderer, fingerprint)
)
"""


@dataclass(frozen=True)
class PlanStoreStats:
    """Point-in-time counters of one :class:`PlanStore` instance.

    ``rows`` is the current table size; the hit/miss/write counters are
    per-instance (they restart with the process — durable state is the
    plans themselves, not the telemetry).
    """

    path: str
    rows: int
    hits: int
    misses: int
    writes: int
    invalidated: int
    corrupt_dropped: int

    def to_dict(self) -> dict:
        """JSON-compatible payload (surfaced under ``/stats``)."""
        return {
            "path": self.path,
            "rows": int(self.rows),
            "hits": int(self.hits),
            "misses": int(self.misses),
            "writes": int(self.writes),
            "invalidated": int(self.invalidated),
            "corrupt_dropped": int(self.corrupt_dropped),
        }


def _key_columns(key: tuple) -> tuple[str, str, str, str]:
    """Validate and stringify a cache-key tuple into the four columns."""
    if len(key) != 4:
        raise ValueError(
            f"plan-store keys are (scope, filter, orderer, fingerprint) "
            f"4-tuples, got {len(key)} components"
        )
    return tuple(str(part) for part in key)  # type: ignore[return-value]


class PlanStore:
    """Durable ``key -> QueryPlan.to_dict()`` map over one sqlite file.

    Parameters
    ----------
    path:
        Filesystem path of the database (created, with parent
        directories, on first use) or ``":memory:"`` for an ephemeral
        store (tests, examples).

    The store speaks plain dict payloads, not :class:`~repro.api.plan.
    QueryPlan` objects — deserialization policy (schema checks, detached
    re-attachment) belongs to the cache/matcher layers above, so the
    store never imports the planning stack.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = str(path)
        if self.path != ":memory:":
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._invalidated = 0
        self._corrupt_dropped = 0
        with self._lock:
            if self.path != ":memory:":
                # WAL lets concurrent worker processes read while one
                # writes; harmless (ignored) for in-memory stores.
                self._conn.execute("PRAGMA journal_mode=WAL")
                # Process-pool workers share the file: back off briefly
                # on a write collision instead of surfacing SQLITE_BUSY
                # into a serving request.
                self._conn.execute("PRAGMA busy_timeout=5000")
            (file_version,) = self._conn.execute("PRAGMA user_version").fetchone()
            if file_version != STORE_SCHEMA_VERSION:
                # Another build's table (or none yet): its rows are
                # misses by the version contract, so nothing is lost.
                self._conn.execute("DROP TABLE IF EXISTS plans")
                self._conn.execute(f"PRAGMA user_version={STORE_SCHEMA_VERSION}")
            self._conn.execute(_TABLE_DDL)
            self._conn.commit()

    # ------------------------------------------------------------------
    # Lookup / insertion
    # ------------------------------------------------------------------
    def get(self, key: tuple) -> dict | None:
        """The stored plan payload under ``key``, or ``None``.

        Rows whose store version does not match this build, or whose
        payload is not valid JSON, are dropped and reported as misses —
        the fall-back-to-cold-planning contract.
        """
        columns = _key_columns(key)
        with self._lock:
            row = self._conn.execute(
                "SELECT store_version, payload FROM plans WHERE scope=? AND "
                "filter=? AND orderer=? AND fingerprint=?",
                columns,
            ).fetchone()
            if row is None:
                self._misses += 1
                return None
            store_version, payload = row
            if store_version != STORE_SCHEMA_VERSION:
                self._delete_locked(columns)
                self._corrupt_dropped += 1
                self._misses += 1
                return None
            try:
                decoded = json.loads(payload)
                if not isinstance(decoded, dict):
                    raise ValueError("payload is not an object")
            except (json.JSONDecodeError, ValueError):
                self._delete_locked(columns)
                self._corrupt_dropped += 1
                self._misses += 1
                return None
            self._hits += 1
            return decoded

    def put(self, key: tuple, payload: dict) -> None:
        """Insert (or replace) ``payload`` — a ``QueryPlan.to_dict()``."""
        columns = _key_columns(key)
        encoded = json.dumps(payload, sort_keys=True)
        plan_version = int(payload.get("version", 0))
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO plans VALUES (?,?,?,?,?,?,?,?)",
                columns
                + (STORE_SCHEMA_VERSION, plan_version, encoded, time.time()),
            )
            self._conn.commit()
            self._writes += 1

    def drop(self, key: tuple) -> bool:
        """Remove one row; returns whether it existed."""
        columns = _key_columns(key)
        with self._lock:
            dropped = self._delete_locked(columns)
            if dropped:
                self._invalidated += 1
            return dropped

    def _delete_locked(self, columns: tuple) -> bool:
        cursor = self._conn.execute(
            "DELETE FROM plans WHERE scope=? AND filter=? AND orderer=? "
            "AND fingerprint=?",
            columns,
        )
        self._conn.commit()
        return cursor.rowcount > 0

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_scope(self, scope: str) -> int:
        """Drop every row under ``scope``; returns how many there were.

        Mirrors :meth:`PlanCache.invalidate_scope` — the service routes
        dataset invalidation through the cache, which writes it through
        here so "the graph behind this name changed" also voids the
        durable plans.
        """
        with self._lock:
            cursor = self._conn.execute(
                "DELETE FROM plans WHERE scope=?", (str(scope),)
            )
            self._conn.commit()
            self._invalidated += cursor.rowcount
            return cursor.rowcount

    def clear(self) -> int:
        """Drop every row; returns how many there were."""
        with self._lock:
            cursor = self._conn.execute("DELETE FROM plans")
            self._conn.commit()
            self._invalidated += cursor.rowcount
            return cursor.rowcount

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return int(
                self._conn.execute("SELECT COUNT(*) FROM plans").fetchone()[0]
            )

    def __contains__(self, key: tuple) -> bool:
        columns = _key_columns(key)
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM plans WHERE scope=? AND filter=? AND "
                "orderer=? AND fingerprint=?",
                columns,
            ).fetchone()
            return row is not None

    def stats(self) -> PlanStoreStats:
        """A consistent counter snapshot (plus the live row count)."""
        with self._lock:
            rows = int(
                self._conn.execute("SELECT COUNT(*) FROM plans").fetchone()[0]
            )
            return PlanStoreStats(
                path=self.path,
                rows=rows,
                hits=self._hits,
                misses=self._misses,
                writes=self._writes,
                invalidated=self._invalidated,
                corrupt_dropped=self._corrupt_dropped,
            )

    def close(self) -> None:
        """Close the underlying connection (further calls will fail)."""
        with self._lock:
            self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        s = self.stats()
        return (
            f"PlanStore(path={self.path!r}, rows={s.rows}, "
            f"hits={s.hits}, misses={s.misses}, writes={s.writes})"
        )
