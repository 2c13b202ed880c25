"""Shared core of the end-to-end benchmark: paths, statistics, the
machine-speed gauge, the arrival schedule and the in-process closed loop.

Nothing here starts a server, so the harness tests can pin it cheaply.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import math
import os
import resource
import statistics
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: How often set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: The CPU the measured work runs on, and the gauge beside it: the
#: in-process workloads pin themselves to it, the server is pinned to it.
WORK_CPUS = {min(os.sched_getaffinity(0))}
#: Seeds ``query_workload`` and ``RLQVOConfig``: which query structures
#: exist and which policy is trained.  ``--seed`` decides how they arrive
#: (vertex numbering, op order, arrival schedule); see README, "Seeds".
POOL_SEED = 0

#: Gated like end-to-end metrics, but beside ``BENCHMARK.json``: its
#: ``end_to_end`` list takes only metrics that every workload emits and
#: that are never 0.  Every untraced run prints these, ``--out`` stores
#: them and ``compare.py`` applies the bounds; a bound of 0 marks a count
#: that is the same on every run of a commit.
GATED_BESIDE = [
    {"name": "failed_share", "unit": "ratio", "better": "lower", "bound": 0.0},
    {"name": "enum_ratio_vs_ri", "unit": "ratio", "better": "lower", "bound": 0.0},
    {"name": "train_epoch_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def load_spec() -> dict:
    """The benchmark's declaration, ``BENCHMARK.json`` at the repo root."""
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def use_repo_sources() -> None:
    """Make ``repro`` importable here and in the server subprocess.

    The benchmark measures the checkout it sits in: ``src`` goes first on
    ``sys.path`` and ``PYTHONPATH``, and the bundled graphs are read from
    the checkout's ``data`` directory whatever the working directory is.
    """
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"e2e benchmark: no program to measure at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (
        str(SRC) if not inherited else f"{SRC}{os.pathsep}{inherited}"
    )
    os.environ.setdefault("REPRO_DATA_DIR", str(ROOT / "data"))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least
    ``q`` of the sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many samples lie strictly above the nearest-rank ``q``."""
    return count - max(1, math.ceil(q * count))


def supports_percentile(count: int, q: float) -> bool:
    """The reporting rule: a percentile needs ten samples beyond it."""
    return samples_beyond(count, q) >= 10


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def poisson_schedule(rate: float, count: int, rng) -> list[float]:
    """Due times (seconds from the start) of a Poisson process at ``rate``,
    given that exactly ``count`` arrivals fall in ``count / rate`` seconds:
    sorted uniform draws.  Fixing the count fixes the offered load, so the
    seed moves only where the bursts and the gaps are.
    """
    return sorted(float(t) for t in rng.uniform(0.0, count / rate, size=count))


def renumbered(queries, rng) -> list:
    """An isomorphic copy of each query under a random vertex numbering.

    This is how ``--seed`` reaches the query graphs the server is sent:
    their *structures* come from :data:`POOL_SEED`, and the server
    canonicalises what it receives, so runs on different seeds do equal
    work and can be compared.
    """
    from repro.graphs.canonical import relabel_graph

    return [
        relabel_graph(query, [int(p) for p in rng.permutation(query.num_vertices)])
        for query in queries
    ]


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
class MachineGauge:
    """How fast the work CPU is while the run goes on.

    The sandbox is a few cores of a shared host, and a neighbour slows a
    core by a factor of 1.3 to 1.8 for seconds or for minutes at a time:
    ten raw runs of one commit spread by 20–40 %, more than any bound a
    benchmark may declare.  So a thread of the benchmark, pinned to
    :data:`WORK_CPUS`, repeats one fixed computation every
    :attr:`PERIOD_S` and keeps the CPU time it took (CPU time, so sharing
    the core with the program under test does not count: only the core's
    speed does, and nothing the program does can move it).  Every
    reported time is the time measured divided by :meth:`factor` over the
    same interval — the time the work would have taken on a machine on
    which the computation takes :attr:`REFERENCE_S`, as it does here when
    the host is quiet.  The computation allocates and walks small lists,
    sets, dicts and Counters, as the program's filter and enumerator do;
    a loop of integer arithmetic followed the workloads' slow-downs only
    half as well.
    """

    REFERENCE_S = 0.0011
    PERIOD_S = 0.1

    def __init__(self) -> None:
        #: (when, CPU seconds) per sample, in time order.
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        begun = time.thread_time()
        for k in range(6):
            rows = [[(i * j + k) % 97 for j in range(12)] for i in range(60)]
            counts = Counter(x for row in rows for x in row)
            keep = {i for i, row in enumerate(rows) if all(counts[x] > 1 for x in row)}
            _ = {i: sorted(row) for i, row in enumerate(rows) if i in keep}
        self.samples.append((time.perf_counter(), time.thread_time() - begun))

    @contextlib.contextmanager
    def watch(self):
        """Sample in the background until the block ends."""
        stop = threading.Event()

        def loop() -> None:
            os.sched_setaffinity(0, WORK_CPUS)  # this thread only
            while not stop.is_set():
                self.sample()
                stop.wait(self.PERIOD_S)

        thread = threading.Thread(target=loop, name="machine-gauge")
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()

    def factor(self, start: float, end: float) -> float:
        """Mean sample between ``start`` and ``end`` (``perf_counter``
        readings) and a period and a half either side, over the
        reference; the nearest sample on each side if none is that near.
        """
        if not self.samples:
            raise RuntimeError("machine gauge: no sample taken")
        times = [when for when, _ in self.samples]
        slack = 1.5 * self.PERIOD_S
        lo, hi = bisect.bisect_left(times, start - slack), bisect.bisect_right(times, end + slack)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(times), hi + 1)
        return statistics.fmean(cpu for _, cpu in self.samples[lo:hi]) / self.REFERENCE_S

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` as the reference machine would have taken it."""
        return (end - start) / self.factor(start, end)


# ----------------------------------------------------------------------
# What one run produces
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One timed operation.  ``index`` names the input it ran."""

    index: int
    #: ``perf_counter`` when the clock of this op started (open loop: when
    #: it was due) and the wall-clock milliseconds it then took.
    start: float
    latency_ms: float
    ok: bool
    num_matches: int = 0
    #: The paper's ``#enum`` of this op (``num_enumerations``).
    steps: int = 0


@dataclass
class Measurement:
    """The timed phase of one run."""

    ops: list[Op]
    peak_rss_mb: float
    #: Closed-loop callers that produced ``ops`` between them.
    callers: int = 1
    #: Workload-specific detail per op (phase records, raw responses).
    records: list = field(default_factory=list)
    #: Per-layer metrics, filled by a traced run.
    layers: dict = field(default_factory=dict)

    def first_pass(self) -> list[Op]:
        """The first op on each input.  Every count is taken from these,
        so the clock decides only how many *further* latency samples a
        run collects."""
        seen: dict[int, Op] = {}
        for op in self.ops:
            seen.setdefault(op.index, op)
        return list(seen.values())


def scaled_latencies_ms(ops: list[Op], gauge: MachineGauge) -> dict[int, list[float]]:
    """Per input, the latency of each good repetition at reference speed.
    An input that never succeeded has none."""
    scaled: dict[int, list[float]] = {}
    for op in ops:
        if op.ok:
            end = op.start + op.latency_ms / 1e3
            scaled.setdefault(op.index, []).append(op.latency_ms / gauge.factor(op.start, end))
    return scaled


def end_to_end(measured: Measurement, setup_times: list[float], gauge: MachineGauge) -> dict:
    """The end-to-end metrics of one run, by declared name.

    All times are at reference speed (see :class:`MachineGauge`).  An
    input's latency is the median of its good repetitions, which differ
    by what else the machine and the other caller were doing; p50 and p95
    are over the inputs.  Throughput is what the callers complete between
    them in a second of their own time.
    """
    scaled = scaled_latencies_ms(measured.ops, gauge)
    if not scaled:
        raise SystemExit("e2e benchmark: every timed op failed")
    per_input = [statistics.median(times) for times in scaled.values()]
    good = sum(len(times) for times in scaled.values())
    first = measured.first_pass()
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": percentile(per_input, 0.50),
        "latency_p95_ms": percentile(per_input, 0.95),
        "throughput_ops_s": (
            measured.callers * good / (sum(map(sum, scaled.values())) / 1e3)
        ),
        "enum_per_query": sum(op.steps for op in first) / len(first),
        "peak_rss_mb": measured.peak_rss_mb,
    }


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def measure_passes(op, count: int, seconds: float) -> Measurement:
    """Closed loop with one in-process caller: whole passes of
    ``op(index)`` over every index, until ``seconds`` have passed.
    ``op`` returns a ``phases.PhaseRecord``.
    """
    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        for index in range(count):
            begun = time.perf_counter()
            record = op(index)
            latency_ms = 1e3 * (time.perf_counter() - begun)
            ops.append(Op(
                index, begun, latency_ms, not record.timed_out, record.matches, record.steps
            ))
    return Measurement(ops=ops, peak_rss_mb=peak_rss_mb())


def rotated_passes(variants: list, count: int) -> list[tuple[list, list[float]]]:
    """Run every variant of an op on every index, rotating which goes
    first, so a machine that drifts slows all variants alike.  Returns,
    per variant, the outcomes and the seconds each call took.
    """
    outcomes = [[None] * count for _ in variants]
    seconds = [[0.0] * count for _ in variants]
    for index in range(count):
        for turn in range(len(variants)):
            which = (index + turn) % len(variants)
            outcomes[which][index], seconds[which][index] = timed(variants[which], index)
    return list(zip(outcomes, seconds))


def traced_measurement(records: list, seconds: list[float]) -> Measurement:
    """The traced pass of a traced run, as a :class:`Measurement`."""
    ops = [
        Op(index, 0.0, 1e3 * took, not record.timed_out, record.matches, record.steps)
        for index, (record, took) in enumerate(zip(records, seconds))
    ]
    return Measurement(ops=ops, peak_rss_mb=peak_rss_mb(), records=records)


def repeated_setups(setup, teardown, repeats: int, gauge: MachineGauge) -> list[float]:
    """Set the system up ``repeats`` times, leaving the last one standing;
    the seconds each took at reference speed."""
    times = []
    for attempt in range(repeats):
        if attempt:
            teardown()
        start = time.perf_counter()
        setup()
        times.append(gauge.scaled(start, time.perf_counter()))
    return times
