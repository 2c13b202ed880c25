"""Canonical-fingerprint plan cache: amortize Phases (1)–(2) across requests.

Planning — filtering plus the (potentially learned) ordering phase — is
the expensive per-query step a deployment pays over and over, even
though production workloads keep re-asking isomorphic queries against
long-lived data graphs.  :class:`PlanCache` is the amortization point: a
thread-safe LRU keyed by ``(scope, filter, orderer, fingerprint)``, where
the fingerprint is the *exact* canonical isomorphism-class hash of
:func:`repro.graphs.canonical.canonical_fingerprint`, holding frozen
:class:`~repro.api.plan.QueryPlan` objects whose live contexts let
:meth:`~repro.api.matcher.Matcher.execute` skip straight to Phase (3).

Soundness: a fingerprint hit alone is not enough to reuse a plan — the
cached plan's order and context are expressed in the cached query's
vertex numbering, so :meth:`PlanCache.get` additionally checks the
stored query for *exact* equality with the requested one and reports a
miss otherwise.  Callers that canonicalize queries before planning (the
service does, at the request boundary) therefore hit for every isomorph
of a cached query; callers that don't still get correct, if narrower,
caching for repeated identical queries.

Memory is bounded by a byte budget: each entry is charged its plan's
``candidate_space_bytes`` plus an estimate of the candidate arrays it
keeps alive, and least-recently-used entries are evicted until the
budget holds.  Hit/miss/eviction counters are kept for the service's
:class:`~repro.service.service.ServiceStats` snapshot, and invalidation
is explicit: per key, per scope (e.g. one dataset), or everything.

Persistence (the second tier): constructed with a
:class:`~repro.server.store.PlanStore` (``store=``), the cache becomes
write-through — every cached plan's :meth:`~repro.api.plan.QueryPlan.
to_dict` payload is also filed durably, a memory miss falls through to
the store (deserializing into a *detached* plan the owning matcher
re-attaches), and invalidation voids both tiers.  Warm state thereby
survives restarts and is shareable across worker processes; an
unreadable or stale store row degrades to a plain miss.  Byte-budget
*evictions* deliberately do not touch the store — the memory tier
bounds residency, the durable tier is the archive.
"""

from __future__ import annotations

import sqlite3
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.api.plan import QueryPlan
from repro.errors import ReproError
from repro.graphs.graph import Graph

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids service→server import
    from repro.server.store import PlanStore

__all__ = ["CacheStats", "PlanCache"]

#: Fixed per-entry charge covering the plan object, key strings and the
#: small per-vertex metadata the byte budget would otherwise miss.
ENTRY_OVERHEAD_BYTES = 2048

#: Default byte budget — roomy for thousands of query-sized plans while
#: bounding a service that caches large candidate spaces.
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time snapshot of a :class:`PlanCache`'s counters.

    ``hits`` / ``misses`` count :meth:`PlanCache.get` outcomes (a
    fingerprint collision that fails the exact-query check counts as a
    miss), ``evictions`` counts entries dropped by the byte budget —
    explicit invalidation is not an eviction.  ``store_hits`` counts the
    subset of hits served from the persistent second tier (a fresh
    process's warm starts); they are included in ``hits`` too.
    """

    hits: int
    misses: int
    evictions: int
    plans: int
    bytes: int
    max_bytes: int
    store_hits: int = 0

    @property
    def hit_rate(self) -> float:
        """``hits / (hits + misses)``; 0.0 before any lookup."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        """JSON-compatible payload (plus the derived hit rate)."""
        return {
            "hits": int(self.hits),
            "misses": int(self.misses),
            "evictions": int(self.evictions),
            "plans": int(self.plans),
            "bytes": int(self.bytes),
            "max_bytes": int(self.max_bytes),
            "store_hits": int(self.store_hits),
            "hit_rate": float(self.hit_rate),
        }


def _plan_cost_bytes(plan: QueryPlan) -> int:
    """Byte charge for caching ``plan``: its live Phase (1) footprint.

    ``candidate_space_bytes`` is the measured flat per-edge index; the
    candidate arrays themselves are estimated from the recorded counts
    (int64 entries).  An exact-to-the-byte figure is not the point — the
    budget needs to scale with what the entry actually pins in memory.
    """
    return (
        ENTRY_OVERHEAD_BYTES
        + int(plan.candidate_space_bytes)
        + 8 * sum(int(c) for c in plan.candidate_counts)
    )


class PlanCache:
    """Thread-safe LRU over frozen query plans with a byte budget.

    Parameters
    ----------
    max_bytes:
        Budget for the summed entry costs (see :func:`_plan_cost_bytes`);
        inserting past it evicts least-recently-used entries.  A single
        plan costlier than the whole budget is not cached in memory
        (it is still persisted when a store is attached).
    store:
        Optional :class:`~repro.server.store.PlanStore` second tier:
        writes go through to it, memory misses fall back to it, and
        invalidation voids it alongside the memory tier.

    Examples
    --------
    >>> from repro.service import PlanCache
    >>> cache = PlanCache(max_bytes=1 << 20)
    >>> cache.stats().plans
    0
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_CACHE_BYTES,
        store: "PlanStore | None" = None,
    ):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self.store = store
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[QueryPlan, int]] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._store_hits = 0

    def attach_store(self, store: "PlanStore") -> None:
        """Install (or replace) the persistent second tier.

        The service calls this when a ``plan_store`` is configured after
        the cache already exists (e.g. a prebuilt catalog carrying its
        own cache) — already-cached plans start persisting on their next
        insert; nothing is backfilled retroactively.
        """
        with self._lock:
            self.store = store

    # ------------------------------------------------------------------
    # Lookup / insertion
    # ------------------------------------------------------------------
    def get(self, key: tuple, query: Graph | None = None) -> QueryPlan | None:
        """The cached plan under ``key``, or ``None`` (counted as a miss).

        When ``query`` is given, the stored plan's query must equal it
        exactly — the guard that makes fingerprint keying sound even if
        two non-identical graphs ever collided on a fingerprint.

        A memory miss falls through to the persistent store (when one is
        attached): a readable row deserializes into a *detached* plan —
        no live Phase (1) context — which is promoted into the memory
        tier and returned as a hit (counted in ``store_hits`` too).  The
        caller (see :meth:`repro.api.matcher.Matcher.plan_fingerprinted`)
        re-attaches it; an unreadable or stale row is dropped and served
        as a miss.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                plan, _cost = entry
                if query is None or plan.query == query:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return plan
            store = self.store
        if store is not None:
            plan = self._load_from_store(store, key, query)
            if plan is not None:
                self._insert_memory(key, plan)
                with self._lock:
                    self._hits += 1
                    self._store_hits += 1
                return plan
        with self._lock:
            self._misses += 1
        return None

    @staticmethod
    def _load_from_store(store, key: tuple, query: Graph | None):
        """Deserialize a store row, or ``None`` (dropping bad rows).

        Failure handling is the point: an undecodable/unsupported
        payload (older plan schema, truncated write) is deleted and
        treated as a miss so a stale store can only cost a cold plan,
        never an error; an exact-query mismatch (fingerprint collision)
        is a miss but the row — correct for *its* query — stays.
        """
        try:
            payload = store.get(key)
        except sqlite3.Error:
            return None
        if payload is None:
            return None
        try:
            plan = QueryPlan.from_dict(payload)
        except ReproError:
            try:
                store.drop(key)
            except sqlite3.Error:
                pass
            return None
        if query is not None and plan.query != query:
            return None
        return plan

    def put(self, key: tuple, plan: QueryPlan, persist: bool = True) -> bool:
        """Insert ``plan`` under ``key``; evict LRU entries past budget.

        Returns whether the plan was cached in memory (an entry larger
        than the whole budget is skipped rather than thrashing the cache
        empty).  Re-inserting an existing key replaces the entry in
        place.  With a store attached the payload is also written
        through durably (even when the memory tier declined it);
        ``persist=False`` updates the memory tier only — how re-attached
        store plans are promoted without rewriting identical rows.
        """
        cached = self._insert_memory(key, plan)
        if persist and self.store is not None:
            try:
                self.store.put(key, plan.to_dict())
            except sqlite3.Error:
                pass  # durability is best-effort; serving must not break
        return cached

    def _insert_memory(self, key: tuple, plan: QueryPlan) -> bool:
        """The memory-tier LRU insert (no store traffic)."""
        cost = _plan_cost_bytes(plan)
        if cost > self.max_bytes:
            return False
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (plan, cost)
            self._bytes += cost
            while self._bytes > self.max_bytes:
                _, (_, evicted_cost) = self._entries.popitem(last=False)
                self._bytes -= evicted_cost
                self._evictions += 1
            return True

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate(self, key: tuple) -> bool:
        """Drop one entry (both tiers); returns whether either held it."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._bytes -= entry[1]
        stored = False
        if self.store is not None:
            try:
                stored = self.store.drop(key)
            except sqlite3.Error:
                pass
        return entry is not None or stored

    def invalidate_scope(self, scope: str) -> int:
        """Drop every entry whose key's first component is ``scope``.

        Scopes are how callers partition one shared cache — the service
        uses the dataset name, so replacing a dataset's graph (or
        retraining its model) invalidates exactly its plans, in memory
        *and* in the persistent store (plans for a vanished graph must
        not resurrect on the next restart).  Returns the number of
        entries dropped from whichever tier held more.
        """
        with self._lock:
            doomed = [key for key in self._entries if key and key[0] == scope]
            for key in doomed:
                _, cost = self._entries.pop(key)
                self._bytes -= cost
        stored = 0
        if self.store is not None:
            try:
                stored = self.store.invalidate_scope(scope)
            except sqlite3.Error:
                pass
        return max(len(doomed), stored)

    def clear(self) -> int:
        """Drop every entry (both tiers); returns how many there were."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._bytes = 0
        stored = 0
        if self.store is not None:
            try:
                stored = self.store.clear()
            except sqlite3.Error:
                pass
        return max(count, stored)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """A consistent counter snapshot."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                plans=len(self._entries),
                bytes=self._bytes,
                max_bytes=self.max_bytes,
                store_hits=self._store_hits,
            )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        s = self.stats()
        return (
            f"PlanCache(plans={s.plans}, bytes={s.bytes:,}/{s.max_bytes:,}, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )
