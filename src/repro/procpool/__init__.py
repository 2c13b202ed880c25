"""Multiprocess execution tier under the cost-aware scheduler.

Phase (3) enumeration is CPU-bound Python: thread workers serialize on
the GIL, so PR 9's scheduler could order and police work but never make
it faster.  This package is the missing executor —
``SchedulerConfig(executor="process")`` dispatches admitted requests to
a :class:`ProcessPool` of long-lived spawn workers, each holding its
own lazily-built per-dataset matcher and planning deterministically,
so results stay bit-identical to the in-process path while throughput
scales with cores.

:class:`CostCalibrator` rides in the same package because it closes
the loop the executor opens: workers report actual enumeration
seconds, and an EWMA per ``(dataset, query-size)`` bucket corrects the
static plan-cost estimate at admission, surfaced as
estimate-vs-observed calibration in ``/stats``.
"""

from repro.procpool.feedback import DEFAULT_ALPHA, CostCalibrator
from repro.procpool.pool import DEFAULT_RESPAWN_LIMIT, ProcessPool
from repro.procpool.worker import catalog_spec, worker_main

__all__ = [
    "DEFAULT_ALPHA",
    "DEFAULT_RESPAWN_LIMIT",
    "CostCalibrator",
    "ProcessPool",
    "catalog_spec",
    "worker_main",
]
