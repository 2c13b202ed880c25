"""``lib_cold_findall`` — the paper's Fig. 3 path with nothing in the way.

An in-process ``Matcher(data, filter="gql", orderer="ri")`` plans and
executes fresh queries, count-only, with no plan cache: every op pays
Phase (1) and Phase (3) in full and Phase (2) is RI (~0).  It bypasses
canonicalization, cache, service, scheduler and server, so a change to
those layers must leave it where it is.
"""

from __future__ import annotations

import os

import numpy as np

from harness import (
    POOL_SEED, WORK_CPUS, Measurement, measure_passes, rotated_passes, traced_measurement,
)
from phases import phase_metrics, phase_record
from tracer import NullTracer

from repro import Matcher
from repro.datasets import clear_cache, load_dataset, query_workload

#: A run repeats its pass over the queries several times (see
#: ``harness.end_to_end``), which caps the cost of an op: on
#: yeast an op is 5–15 ms with Phase (1) about two thirds and Phase (3)
#: one third of it.  citeseer (25–50 ms per op) is left to the serving
#: workloads; youtube and the Q16 class of citeseer cost 50–150 ms per op
#: and hold the time-limit-bound queries no workload may contain.
DATASET = "yeast"
#: Query sizes, equal counts each.
SIZES = (8, 16)
MATCH_LIMIT = 10_000
TIME_LIMIT_S = 20.0
#: Distinct queries per size: 200 ops a pass, so ten lie beyond p95.
QUERIES_PER_SIZE, SMOKE_QUERIES_PER_SIZE = 100, 10
WARMUP_OPS = 6


class LibColdFindall:
    name = "lib_cold_findall"

    def __init__(self, seed: int, seconds: float, smoke: bool = False):
        self.seed = seed
        self.seconds = seconds
        self.per_size = SMOKE_QUERIES_PER_SIZE if smoke else QUERIES_PER_SIZE
        self.matcher = None
        self.inputs: list[tuple] = []  # (size, position in its class, query)

    # ------------------------------------------------------------------
    def setup(self, tracer=NullTracer()) -> None:
        os.sched_setaffinity(0, WORK_CPUS)  # where the machine gauge watches
        clear_cache()
        with tracer.span("datasets.load"):
            data = load_dataset(DATASET)
        self.matcher = Matcher(
            data, filter="gql", orderer="ri", match_limit=MATCH_LIMIT, time_limit=TIME_LIMIT_S
        )
        self.inputs = []
        for size in SIZES:
            with tracer.span("datasets.querygen"):
                pool = query_workload(
                    DATASET, size, count=self.per_size, seed=POOL_SEED, data=data
                ).all_queries
            self.inputs.extend((size, place, query) for place, query in enumerate(pool))
        # The seed decides the op order only: a renumbered query breaks
        # RI's ties another way, which moved #enum per op by 10 % between
        # seeds — a change in the work, not in the code.
        order = np.random.default_rng([self.seed, 3]).permutation(len(self.inputs))
        self.inputs = [self.inputs[i] for i in order]
        for index in range(min(WARMUP_OPS, len(self.inputs))):
            self.op(index, NullTracer())

    def teardown(self) -> None:
        self.matcher, self.inputs = None, []

    def prepare(self) -> None:
        """Nothing to do between set-up and the clock."""

    # ------------------------------------------------------------------
    def op(self, index: int, tracer):
        *_, query = self.inputs[index]
        with tracer.span("op", index):
            with tracer.span("api.plan"):
                plan = self.matcher.plan(query)
            with tracer.span("api.execute"):
                result = self.matcher.execute(plan)
        return phase_record(plan, result.enumeration)

    def measure(self) -> Measurement:
        return measure_passes(
            lambda index: self.op(index, NullTracer()), len(self.inputs), self.seconds
        )

    def gated(self, measured: Measurement, gauge) -> dict:
        """This workload's own entries of ``harness.GATED_BESIDE``: none."""
        return {}

    # ------------------------------------------------------------------
    def trace(self, tracer) -> Measurement:
        """One untraced and one traced pass over the same queries."""
        (_, plain_s), (records, traced_s) = rotated_passes(
            [lambda i: self.op(i, NullTracer()), lambda i: self.op(i, tracer)], len(self.inputs)
        )
        traced = traced_measurement(records, traced_s)
        spans = tracer.summary()
        op_ms = spans["op"].mean_ms
        traced.layers = phase_metrics(traced.records, op_ms)
        traced.layers.update({
            "api.plan_ms": spans["api.plan"].mean_ms,
            "api.execute_ms": spans["api.execute"].mean_ms,
            "trace.coverage_share": spans["op"].coverage,
            "trace.overhead_share": sum(traced_s) / sum(plain_s) - 1.0,
        })
        return traced

    # ------------------------------------------------------------------
    def golden_counts(self, measured: Measurement) -> dict:
        """``num_matches`` per query, keyed by class and position in it."""
        out: dict = {}
        for op in measured.first_pass():
            size, place, _ = self.inputs[op.index]
            out.setdefault(f"{DATASET}/Q{size}", {})[str(place)] = op.num_matches
        return out

    def verify(self, measured: Measurement, checker) -> None:
        """Re-run a seeded sample with embeddings recorded and check each."""
        checker.golden(self.name, self.golden_counts(measured))
        recorder = Matcher(
            self.matcher.data, filter="gql", orderer="ri", stats=self.matcher.stats,
            match_limit=checker.EMBEDDINGS_PER_OP, time_limit=TIME_LIMIT_S,
            record_matches=True,
        )
        counts = {op.index: op.num_matches for op in measured.first_pass()}
        for index in checker.sample(len(self.inputs)):
            *_, query = self.inputs[index]
            result = recorder.match(query)
            checker.embeddings(
                f"{self.name}[{index}]", query, recorder.data, result.enumeration.matches
            )
            checker.equal(
                f"{self.name}[{index}] num_matches under a smaller limit",
                result.num_matches, min(counts[index], checker.EMBEDDINGS_PER_OP),
            )
