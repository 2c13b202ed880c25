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
The cache lives and dies with its process; a restarted process re-plans
(planning is deterministic, so the plans it rebuilds are the same).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.api.plan import QueryPlan
from repro.graphs.graph import Graph

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
    explicit invalidation is not an eviction.
    """

    hits: int
    misses: int
    evictions: int
    plans: int
    bytes: int
    max_bytes: int

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
        plan costlier than the whole budget is not cached.

    Examples
    --------
    >>> from repro.service import PlanCache
    >>> cache = PlanCache(max_bytes=1 << 20)
    >>> cache.stats().plans
    0
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple[QueryPlan, int]] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Lookup / insertion
    # ------------------------------------------------------------------
    def get(self, key: tuple, query: Graph | None = None) -> QueryPlan | None:
        """The cached plan under ``key``, or ``None`` (counted as a miss).

        When ``query`` is given, the stored plan's query must equal it
        exactly — the guard that makes fingerprint keying sound even if
        two non-identical graphs ever collided on a fingerprint.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                plan, _cost = entry
                if query is None or plan.query == query:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return plan
            self._misses += 1
            return None

    def put(self, key: tuple, plan: QueryPlan) -> bool:
        """Insert ``plan`` under ``key``; evict LRU entries past budget.

        Returns whether the plan was cached (an entry larger than the
        whole budget is skipped rather than thrashing the cache empty).
        Re-inserting an existing key replaces the entry in place.
        """
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
        """Drop one entry; returns whether the cache held it."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._bytes -= entry[1]
        return entry is not None

    def invalidate_scope(self, scope: str) -> int:
        """Drop every entry whose key's first component is ``scope``.

        Scopes are how callers partition one shared cache — the service
        uses the dataset name, so replacing a dataset's graph (or
        retraining its model) invalidates exactly its plans.  Returns the
        number of entries dropped.
        """
        with self._lock:
            doomed = [key for key in self._entries if key and key[0] == scope]
            for key in doomed:
                _, cost = self._entries.pop(key)
                self._bytes -= cost
        return len(doomed)

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        with self._lock:
            count = len(self._entries)
            self._entries.clear()
            self._bytes = 0
        return count

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
