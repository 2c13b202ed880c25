"""Multiprocess execution tier under the cost-aware scheduler.

Phase (3) enumeration is CPU-bound Python: thread workers serialize on
the GIL, so PR 9's scheduler could order and police work but never make
it faster.  This package is the missing executor —
``SchedulerConfig(executor="process")`` dispatches admitted requests to
a :class:`ProcessPool` of long-lived spawn workers, each holding its
own lazily-built per-dataset matcher and planning deterministically,
so results stay bit-identical to the in-process path while throughput
scales with cores.

Admission, ordering and per-tenant accounting stay in the parent's
scheduler, which orders its queue by the plan's static cost estimate;
the pool only executes.
"""

from repro.procpool.pool import DEFAULT_RESPAWN_LIMIT, ProcessPool
from repro.procpool.worker import catalog_spec, worker_main

__all__ = [
    "DEFAULT_RESPAWN_LIMIT",
    "ProcessPool",
    "catalog_spec",
    "worker_main",
]
