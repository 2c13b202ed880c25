"""repro.service — serve many datasets, many clients, repeated queries.

The :mod:`repro.api` facade made one data graph prepare-once/query-many;
this package makes the *deployment* so.  A single :class:`MatchService`
holds:

* a **multi-dataset catalog** (:class:`DatasetCatalog`) of lazily
  constructed, per-dataset-configurable
  :class:`~repro.api.matcher.Matcher` instances, seeded from the
  :mod:`repro.datasets` registry or from your own graphs;
* a **canonical-fingerprint plan cache** (:class:`PlanCache`): queries
  are exactly canonicalized at the boundary, so every isomorph of a
  cached query hits one entry and skips the filtering and ordering
  phases entirely — bit-identical to cold planning on match sequences
  and ``#enum``, bounded by an LRU byte budget, explicitly
  invalidatable;
* **concurrent request execution**: structured :class:`MatchRequest` /
  :class:`MatchResponse` payloads, a thread-pool ``submit_many`` over
  the documented-thread-safe matchers, and a :class:`ServiceStats`
  snapshot (requests, hit rate, per-phase totals, latency
  percentiles);
* an optional **cost-aware admission/scheduling tier**
  (:class:`CostAwareScheduler`, attached via
  ``MatchService(..., scheduler=SchedulerConfig(...))``): a bounded
  priority queue ordered by (priority, deadline, estimated plan cost)
  with a per-tenant in-flight cap, structured 429-style rejection
  (:class:`ServiceError`), queue-deadline fail-fast, and
  retry-with-degrade on timeout — scheduling changes *when* work runs,
  never *what it returns*.

The one serving CLI is ``repro-server`` (:mod:`repro.server.cli`), which
puts a :class:`MatchService` behind ``POST /match``.

Example
-------
>>> from repro.service import MatchService, MatchRequest
>>> from repro.graphs import erdos_renyi, extract_query
>>> import numpy as np
>>> data = erdos_renyi(120, 360, 3, seed=5)           # your data graph
>>> service = MatchService(catalog={"tiny": data})    # serve it by name
>>> rng = np.random.default_rng(0)
>>> queries = [extract_query(data, 4, rng) for _ in range(3)]
>>> first = service.submit_many([MatchRequest("tiny", q) for q in queries])
>>> all(r.ok and not r.cache_hit for r in first)
True
>>> repeat = service.submit_many([MatchRequest("tiny", q) for q in queries])
>>> all(r.ok and r.cache_hit for r in repeat)   # plans amortized
True
>>> repeat[0].num_enumerations == first[0].num_enumerations
True
"""

from repro.service.cache import CacheStats, PlanCache
from repro.service.catalog import CatalogEntry, DatasetCatalog
from repro.service.requests import (
    ERROR_HTTP_STATUS,
    UNSET,
    MatchRequest,
    MatchResponse,
    ServiceError,
    error_payload,
    http_status_for,
)
from repro.service.scheduler import (
    CostAwareScheduler,
    SchedulerConfig,
    SchedulerStats,
)
from repro.service.service import (
    STATS_SCHEMA_VERSION,
    MatchService,
    ServiceStats,
)

__all__ = [
    "ERROR_HTTP_STATUS",
    "STATS_SCHEMA_VERSION",
    "UNSET",
    "CacheStats",
    "CatalogEntry",
    "CostAwareScheduler",
    "DatasetCatalog",
    "MatchRequest",
    "MatchResponse",
    "MatchService",
    "PlanCache",
    "SchedulerConfig",
    "SchedulerStats",
    "ServiceError",
    "ServiceStats",
    "error_payload",
    "http_status_for",
]
