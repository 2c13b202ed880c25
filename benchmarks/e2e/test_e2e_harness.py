"""Harness tests for the end-to-end benchmark (collected by tier-1).

They pin the statistics the benchmark reports with, the load
generator's open-loop clock, the declaration in ``BENCHMARK.json``, and
that every workload runs clean at smoke size (one-second runs).
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import harness  # noqa: E402
import serving  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = harness.load_spec()
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert harness.percentile(values, 0.50) == 50
    assert harness.percentile(values, 0.95) == 95
    assert harness.percentile(values, 1.00) == 100
    assert harness.percentile([7.0], 0.95) == 7.0
    assert harness.percentile([3, 1, 2], 0.5) == 2
    with pytest.raises(ValueError):
        harness.percentile([], 0.5)


def test_p95_needs_ten_samples_beyond_it():
    assert harness.samples_beyond(200, 0.95) == 10
    assert harness.supports_percentile(200, 0.95)
    assert not harness.supports_percentile(199, 0.95)
    assert harness.supports_percentile(20, 0.50)
    assert not harness.supports_percentile(19, 0.50)


def test_spread_is_interquartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0]
    q1, median, q3 = harness.quartiles(values)
    assert (q1, median, q3) == (10.5, 12.0, 13.5)
    assert harness.spread(values) == pytest.approx(0.25)


def test_poisson_schedule_is_seeded_and_holds_the_offered_load():
    one = harness.poisson_schedule(20.0, 200, np.random.default_rng([5, 2]))
    same = harness.poisson_schedule(20.0, 200, np.random.default_rng([5, 2]))
    other = harness.poisson_schedule(20.0, 200, np.random.default_rng([6, 2]))
    assert one == same
    assert one != other
    assert one == sorted(one)
    assert len(one) == 200 and 0.0 <= one[0] and one[-1] <= 10.0


def test_first_pass_takes_the_first_op_on_each_input():
    ops = [harness.Op(i % 3, 0.0, float(n), True, n) for n, i in enumerate(range(7))]
    measured = harness.Measurement(ops=ops, peak_rss_mb=1.0)
    assert [op.num_matches for op in measured.first_pass()] == [0, 1, 2]


def _gauge(*samples: tuple[float, float]) -> harness.MachineGauge:
    """A gauge that read ``factor`` times the reference at each ``when``."""
    gauge = harness.MachineGauge()
    gauge.samples = [(when, factor * gauge.REFERENCE_S) for when, factor in samples]
    return gauge


def test_gauge_factor_is_the_mean_sample_around_the_interval():
    gauge = _gauge((0.0, 1.0), (1.0, 2.0), (2.0, 4.0), (3.0, 1.0))
    assert gauge.factor(0.95, 1.05) == pytest.approx(2.0)
    assert gauge.factor(0.9, 2.1) == pytest.approx(3.0)
    # Nothing within a period and a half: the nearest sample on each side.
    assert gauge.factor(1.4, 1.6) == pytest.approx(3.0)
    assert gauge.factor(7.0, 8.0) == pytest.approx(1.0)
    assert gauge.scaled(0.95, 1.05) == pytest.approx(0.05)
    with pytest.raises(RuntimeError):
        harness.MachineGauge().factor(0.0, 1.0)


def test_gauge_watch_samples_cpu_time_until_the_block_ends():
    gauge = harness.MachineGauge()
    with gauge.watch():
        time.sleep(2.5 * gauge.PERIOD_S)
    taken = len(gauge.samples)
    assert taken >= 2
    assert all(0.1 < cpu / gauge.REFERENCE_S < 20 for _, cpu in gauge.samples)
    assert [when for when, _ in gauge.samples] == sorted(when for when, _ in gauge.samples)
    time.sleep(1.5 * gauge.PERIOD_S)
    assert len(gauge.samples) == taken  # the thread has ended


def test_times_are_reported_at_reference_speed():
    # The machine ran at half speed around t=10 and at full speed around t=20.
    gauge = _gauge((10.0, 2.0), (20.0, 1.0))
    ops = [
        harness.Op(0, 10.0, 18.0, True), harness.Op(1, 10.0, 10.0, True),
        harness.Op(2, 10.0, 1.0, False),
        harness.Op(0, 20.0, 7.0, True), harness.Op(1, 20.0, 2.0, False),
        harness.Op(0, 20.0, 8.0, True),
    ]
    assert harness.scaled_latencies_ms(ops, gauge) == {0: [9.0, 7.0, 8.0], 1: [5.0]}
    measured = harness.Measurement(ops=ops, peak_rss_mb=1.0, callers=2)
    values = harness.end_to_end(measured, [0.3, 0.1, 0.2], gauge)
    # An input's latency is the median of its good repetitions.
    assert values["latency_p50_ms"] == 5.0 and values["latency_p95_ms"] == 8.0
    # Two callers completed 4 good ops in 29 ms of their own scaled time.
    assert values["throughput_ops_s"] == pytest.approx(2 * 4 / 0.029)
    assert values["setup_s"] == 0.2


def test_measure_passes_runs_whole_passes():
    from phases import PhaseRecord

    calls = []

    def op(index):
        calls.append(index)
        time.sleep(0.002)
        return PhaseRecord(0, 0, 0, 0, 0, 0, steps=10 * index, matches=index,
                           limit_reached=False, timed_out=index == 2)

    before = time.perf_counter()
    measured = harness.measure_passes(op, 3, seconds=0.02)
    assert len(calls) % 3 == 0 and len(calls) >= 6 and calls[:4] == [0, 1, 2, 0]
    assert len(measured.ops) == len(calls) and measured.callers == 1
    assert before <= measured.ops[0].start <= measured.ops[-1].start <= time.perf_counter()
    assert all(op.latency_ms >= 2.0 for op in measured.ops)
    assert [op.ok for op in measured.first_pass()] == [True, True, False]
    values = harness.end_to_end(measured, [1.0], _gauge((before, 1.0)))
    assert values["enum_per_query"] == 10.0
    assert len(harness.measure_passes(op, 3, seconds=0.0).ops) == 3


def test_repeated_setups_leave_the_last_one_standing():
    events = []
    gauge = _gauge((time.perf_counter(), 2.0))
    times = harness.repeated_setups(
        lambda: (events.append("up"), time.sleep(0.01)), lambda: events.append("down"),
        3, gauge,
    )
    assert events == ["up", "down", "up", "down", "up"]
    assert len(times) == 3 and all(0.005 <= t < 0.05 for t in times)  # halved


def test_rotated_passes_run_every_variant_on_every_index():
    calls = []
    variants = [lambda i: calls.append(("a", i)) or i, lambda i: calls.append(("b", i)) or -i]
    (a_out, a_s), (b_out, b_s) = harness.rotated_passes(variants, 3)
    assert a_out == [0, 1, 2] and b_out == [0, -1, -2]
    assert len(a_s) == len(b_s) == 3
    assert calls[:4] == [("a", 0), ("b", 0), ("b", 1), ("a", 1)]


def test_tracer_self_time_is_span_minus_children():
    tracer = Tracer()
    with tracer.span("op", 7):
        with tracer.span("child"):
            time.sleep(0.02)
        time.sleep(0.01)
    summary = tracer.summary()
    assert summary["op"].calls == 1 and summary["child"].calls == 1
    assert summary["op"].self_s == pytest.approx(
        summary["op"].total_s - summary["child"].total_s
    )
    assert 0.5 < summary["op"].coverage < 0.9
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 7  # parent, op_id


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert compare.verdict(steady, [x * 1.02 for x in steady], "lower", 0.1) == "unchanged"
    assert compare.verdict(steady, [x * 1.2 for x in steady], "lower", 0.1) == "regressed"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "lower", 0.1) == "improved"
    assert compare.verdict(steady, [x * 0.8 for x in steady], "higher", 0.1) == "regressed"
    noisy = [60.0, 100.0, 140.0, 80.0, 120.0]
    assert compare.verdict(noisy, noisy, "lower", 0.1) == "unresolved"


def test_compare_gates_exact_counts_at_bound_zero():
    counts = [3.0935] * 3
    assert compare.verdict(counts, counts, "lower", 0.0) == "unchanged"
    assert compare.verdict([0.0] * 3, [0.0] * 5, "lower", 0.0) == "unchanged"
    assert compare.verdict([0.0] * 3, [0.0, 0.01, 0.0], "lower", 0.0) == "regressed"
    assert compare.verdict(counts, [3.0936] * 3, "lower", 0.0) == "regressed"
    assert compare.verdict(counts, [3.0934] * 3, "lower", 0.0) == "improved"
    assert compare.verdict(counts, [3.0934] * 3, "higher", 0.0) == "regressed"


def test_compare_reads_the_declared_and_the_gated_metrics():
    def report(p50, steps):
        rows = [{"latency_p50_ms": p50 + i, "enum_per_query": steps, "failed_share": 0.0,
                 "enum_ratio_vs_ri": steps / 4} for i in range(5)]
        return {"runs": {WORKLOADS[0]: rows}}

    rows = compare.compare(report(100.0, 7000.0), report(130.0, 7008.0), SPEC)
    assert {(row[1], row[4]) for row in rows} == {
        ("latency_p50_ms", "regressed"), ("enum_per_query", "regressed"),
        ("failed_share", "unchanged"), ("enum_ratio_vs_ri", "regressed"),
    }


# ----------------------------------------------------------------------
# The load generator's clock
# ----------------------------------------------------------------------
class _StallingHandler(BaseHTTPRequestHandler):
    """Serves one request at a time; request 0 holds the server 0.4 s."""

    protocol_version = "HTTP/1.1"
    gate = threading.Lock()

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.gate:
            if json.loads(body)["i"] == 0:
                time.sleep(0.4)
        answer = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(answer)))
        self.end_headers()
        self.wfile.write(answer)

    def log_message(self, *args):
        pass


def test_open_loop_latency_counts_from_the_due_time():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        bodies = [json.dumps({"i": i}).encode() for i in range(10)]
        due = [0.02 * i for i in range(10)]
        port = server.server_address[1]
        exchanges, wall = serving.open_loop(port, bodies, due)
        one_pass = serving.closed_loop(port, bodies[1:], None)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    assert [x.index for x in exchanges] == list(range(10))
    assert all(x.status == 200 for x in exchanges)
    late = exchanges[5]  # due at 0.1 s, while both connections were stuck
    assert late.sent - late.due > 0.2            # the generator ran late …
    assert late.done - late.sent < 0.15          # … the server answered fast …
    assert late.done - late.due > 0.25           # … and the op is charged the stall.
    assert wall >= 0.4
    # Closed loop, one pass: each connection sends its own bodies in order.
    assert sorted(x.index for x in one_pass) == list(range(9))
    assert all(x.due == x.sent < x.done for x in one_pass)


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_declaration_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = (
        WORKLOADS
        + [e["name"] for e in SPEC["end_to_end"]]
        + [e["name"] for e in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in SPEC["workloads"]:
        assert set(entry) == {"name", "why"}
        assert "\n" not in entry["why"] and 0 < len(entry["why"]) <= 200
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]) and entry["better"] in ("lower", "higher")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])


def test_declaration_names_only_the_benchmark():
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert (harness.ROOT / SPEC["paths"][0]).resolve() == HERE
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert len(json.dumps(SPEC)) < 64 * 1024


def test_declared_workloads_are_the_implemented_ones():
    harness.use_repo_sources()
    import run

    assert list(run.workload_classes()) == WORKLOADS


# ----------------------------------------------------------------------
# Every workload at smoke size
# ----------------------------------------------------------------------
def _session_members(session: int) -> list[str]:
    """``/proc`` stat lines of the processes (zombies too) in ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text(errors="replace")
            except OSError:
                continue
            if int(stat.rpartition(")")[2].split()[3]) == session:
                members.append(stat)
    return members


def _smoke(workload: str, trace: int) -> tuple[dict, str]:
    # A session of its own, so whatever the run leaves behind can be found.
    with subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as run:
        stdout, stderr = run.communicate(timeout=170)
    assert run.returncode == 0, stdout + stderr
    assert _session_members(run.pid) == [], "the run left a process behind"
    return json.loads(stdout.strip().splitlines()[-1]), stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_clean_and_emits_every_end_to_end_metric(workload):
    result, text = _smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    gated = json.loads(text.strip().splitlines()[-2])["gated"]
    assert set(gated) <= {entry["name"] for entry in harness.GATED_BESIDE}
    assert gated["failed_share"] == 0
    assert ("enum_ratio_vs_ri" in gated) == (workload == "rlqvo_train_order")


@pytest.fixture(scope="module")
def traced_runs() -> dict:
    return {workload: _smoke(workload, trace=1) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_traced_run_emits_every_per_layer_metric(traced_runs, workload):
    result, _ = traced_runs[workload]
    assert result["correct"] is True and result["failed"] == 0
    declared = {e["name"]: e["unit"] for e in SPEC["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
    assert result["metrics"]["trace.coverage_share"]["value"] >= 0.9
    assert (harness.OUT / f"trace-{workload}.jsonl").stat().st_size > 0


def test_every_declared_layer_metric_is_measured_by_some_workload(traced_runs):
    declared = {e["name"] for e in SPEC["per_layer"]}
    measured = {
        line.split()[0]
        for _, text in traced_runs.values() for line in text.splitlines()
        if line.startswith("  ") and line.split()[0] in declared
        and not line.rstrip().endswith("n/a here")
    }
    assert measured == declared
