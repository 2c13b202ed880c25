"""Durable admission journal: admitted-but-unserved requests, on disk.

The scheduler's admission queue is in-memory: a killed server forgets
every request it had admitted but not yet served.  ``DurableQueue``
closes that hole with one sqlite file in WAL mode, journaling each
admission *before* it enters the in-memory queue and deleting the row
when the entry reaches any terminal state (served, failed, expired,
cancelled, rejected at shutdown).  What remains in the file after a
crash is therefore exactly the admitted-but-unserved backlog, and a
restarting scheduler replays it through :meth:`recover` — each row
re-admitted exactly once per restart, with its persisted
priority/deadline/cost so queue ordering survives the crash too.

Rows carry the full :meth:`MatchRequest.to_dict` envelope (JSON), the
accounting tenant, the *absolute wall-clock* deadline (monotonic time
does not survive a process), the corrected cost estimate the queue
ordered by, and an ``attempts`` counter bumped on every recovery — a
poison request that kills the server repeatedly is visible in the
journal, not silently re-served forever.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from dataclasses import dataclass

from repro.errors import ReproError
from repro.service.requests import ServiceError

__all__ = ["DurableEntry", "DurableQueue", "JOURNAL_SCHEMA_VERSION"]

#: Bumped when the journal table shape changes; a mismatched file is
#: refused (crash recovery must never guess at column meaning).
JOURNAL_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DurableEntry:
    """One journaled admission, as recovered from the sqlite file."""

    entry_id: int
    request: dict
    tenant: str
    priority: int
    deadline_wall: float | None
    cost: float
    attempts: int
    admitted_wall: float


class DurableQueue:
    """Sqlite-backed journal of admitted-but-unserved scheduler entries.

    Thread-safe (one connection guarded by a lock — admissions come
    from caller threads, completions from scheduler workers).  The file
    is opened in WAL mode with a busy timeout so a recovering process
    can read while an old one is still draining.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "queue.sqlite")
    >>> journal = DurableQueue(path)
    >>> entry_id = journal.record(
    ...     {"dataset": "tiny", "query": {}}, tenant="acme", cost=12.5)
    >>> len(journal)
    1
    >>> [e.tenant for e in journal.pending()]
    ['acme']
    >>> journal.complete(entry_id)
    >>> len(journal)
    0
    >>> journal.close()
    """

    def __init__(self, path):
        self._path = str(path)
        self._lock = threading.Lock()
        try:
            self._conn = sqlite3.connect(self._path, check_same_thread=False)
        except sqlite3.Error as exc:  # pragma: no cover - bad path
            raise ReproError(
                f"cannot open durable queue at {self._path!r}: {exc}"
            ) from exc
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=5000")
        self._init_schema()

    def _init_schema(self) -> None:
        with self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS journal_meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            row = self._conn.execute(
                "SELECT value FROM journal_meta WHERE key = 'schema'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO journal_meta (key, value) VALUES ('schema', ?)",
                    (str(JOURNAL_SCHEMA_VERSION),),
                )
            elif int(row[0]) != JOURNAL_SCHEMA_VERSION:
                raise ReproError(
                    f"durable queue at {self._path!r} has schema {row[0]}, "
                    f"this build expects {JOURNAL_SCHEMA_VERSION}"
                )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS admissions ("
                " id INTEGER PRIMARY KEY AUTOINCREMENT,"
                " tenant TEXT NOT NULL,"
                " priority INTEGER NOT NULL,"
                " deadline_wall REAL,"
                " estimated_cost REAL NOT NULL,"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " admitted_wall REAL NOT NULL,"
                " request TEXT NOT NULL)"
            )

    @property
    def path(self) -> str:
        """Filesystem path of the journal."""
        return self._path

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------
    def record(
        self,
        request_payload: dict,
        *,
        tenant: str,
        cost: float,
        priority: int = 0,
        deadline_wall: float | None = None,
        attempts: int = 0,
    ) -> int:
        """Journal one admission; the row id to :meth:`complete` with.

        A failed write raises :class:`~repro.service.requests.ServiceError`
        (``code="internal"``) chained from the sqlite error: the
        admission it was to cover must not go ahead undurably.
        """
        try:
            with self._lock, self._conn:
                cursor = self._conn.execute(
                    "INSERT INTO admissions"
                    " (tenant, priority, deadline_wall, estimated_cost,"
                    "  attempts, admitted_wall, request)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        tenant,
                        int(priority),
                        None if deadline_wall is None else float(deadline_wall),
                        float(cost),
                        int(attempts),
                        time.time(),
                        json.dumps(request_payload),
                    ),
                )
                return int(cursor.lastrowid)
        except sqlite3.Error as exc:
            raise ServiceError(
                f"admission journal write failed: {exc}", code="internal"
            ) from exc

    def complete(self, entry_id: int) -> None:
        """Remove one entry — it reached a terminal state."""
        with self._lock, self._conn:
            self._conn.execute(
                "DELETE FROM admissions WHERE id = ?", (int(entry_id),)
            )

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def pending(self) -> list[DurableEntry]:
        """Every journaled entry, in admission (row id) order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT id, tenant, priority, deadline_wall, estimated_cost,"
                " attempts, admitted_wall, request"
                " FROM admissions ORDER BY id"
            ).fetchall()
        entries = []
        for row in rows:
            try:
                payload = json.loads(row[7])
            except (TypeError, ValueError):
                continue  # an unreadable row must not block recovery
            entries.append(
                DurableEntry(
                    entry_id=int(row[0]),
                    tenant=str(row[1]),
                    priority=int(row[2]),
                    deadline_wall=None if row[3] is None else float(row[3]),
                    cost=float(row[4]),
                    attempts=int(row[5]),
                    admitted_wall=float(row[6]),
                    request=payload,
                )
            )
        return entries

    def recover(self) -> list[DurableEntry]:
        """The replayable backlog, each row's ``attempts`` bumped.

        Called once by a restarting scheduler: the returned entries are
        re-admitted exactly once for this process lifetime; rows are
        only removed by :meth:`complete` when the replay reaches a
        terminal state, so a crash *during* recovery still leaves the
        not-yet-terminal remainder for the next restart.
        """
        entries = self.pending()
        if entries:
            with self._lock, self._conn:
                self._conn.executemany(
                    "UPDATE admissions SET attempts = attempts + 1"
                    " WHERE id = ?",
                    [(entry.entry_id,) for entry in entries],
                )
        return [
            DurableEntry(
                entry_id=entry.entry_id,
                request=entry.request,
                tenant=entry.tenant,
                priority=entry.priority,
                deadline_wall=entry.deadline_wall,
                cost=entry.cost,
                attempts=entry.attempts + 1,
                admitted_wall=entry.admitted_wall,
            )
            for entry in entries
        ]

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            row = self._conn.execute(
                "SELECT COUNT(*) FROM admissions"
            ).fetchone()
            return int(row[0])

    def stats(self) -> dict:
        """Snapshot for the ``/stats`` scheduler block."""
        with self._lock:
            count, max_attempts = self._conn.execute(
                "SELECT COUNT(*), COALESCE(MAX(attempts), 0) FROM admissions"
            ).fetchone()
        return {
            "path": self._path,
            "pending": int(count),
            "max_attempts": int(max_attempts),
        }

    def close(self) -> None:
        """Close the sqlite connection (journaled rows stay on disk)."""
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "DurableQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
