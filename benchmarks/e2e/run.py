"""The repo's one end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of its
standard output, one JSON object ``{correct, attempted, failed,
metrics}``: every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``.  Without ``--workload`` every declared
workload runs, each in a process of its own (so ``peak_rss_mb`` is that
workload's); ``--repeat N`` runs each N times on seeds ``seed … seed+N-1``
and prints median and quartiles; ``--out FILE`` stores the runs for
``compare.py``.  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def workload_classes() -> dict:
    """Name → class; imported late so ``--help`` works without ``src``."""
    from wl_lib import LibColdFindall
    from wl_rlqvo import RlqvoTrainOrder
    from wl_serve import ServeColdCounts, ServeWarmRecords

    classes = (LibColdFindall, RlqvoTrainOrder, ServeWarmRecords, ServeColdCounts)
    return {cls.name: cls for cls in classes}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    """One run of one workload, in this process: the result object and
    the counts gated beside it (``harness.GATED_BESIDE``; none when
    tracing)."""
    harness.use_repo_sources()
    from serving import stop_children
    from tracer import Tracer
    from verify import Checker

    spec = harness.load_spec()
    workload = workload_classes()[name](seed, seconds, smoke)
    checker = Checker(seed)
    own_gated, gauge = {}, None
    try:
        if trace:
            tracer = Tracer()
            workload.setup(tracer)
            workload.prepare()
            measured = workload.trace(tracer)
            tracer.write(harness.OUT / f"trace-{name}.jsonl")
            values = per_layer(spec, measured.layers, tracer)
            declared = spec["per_layer"]
        else:
            gauge = harness.MachineGauge()
            with gauge.watch():
                setup_times = harness.repeated_setups(
                    workload.setup, workload.teardown,
                    1 if smoke else harness.SETUP_REPEATS, gauge,
                )
                workload.prepare()
                measured = workload.measure()
            workload.verify(measured, checker)
            values = harness.end_to_end(measured, setup_times, gauge)
            declared = spec["end_to_end"]
            own_gated = workload.gated(measured, gauge)
    finally:
        try:
            workload.teardown()
        finally:
            stop_children()  # nothing this run started outlives it

    failed = sum(not op.ok for op in measured.ops) + len(checker.problems)
    for problem in checker.problems[:20]:
        print(f"MISMATCH {problem}")
    good = len({op.index for op in measured.ops if op.ok})
    print(f"{name} seed={seed} seconds={seconds:g} trace={int(trace)}: "
          f"{len(measured.ops)} ops timed, {failed} failed, {checker.checks} output "
          f"checks; latency percentiles over {good} inputs "
          f"({harness.samples_beyond(good, 0.95)} beyond p95)")
    if gauge is not None:
        report_machine(measured, gauge)
    metrics = {}
    for entry in declared:
        measured_here = values[entry["name"]] is not None
        value = float(values[entry["name"]]) if measured_here else 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<28} {value:>14.4f} {entry['unit']}"
              + ("" if measured_here else "  n/a here"))
    gated = {}
    if not trace:
        gated = {"failed_share": failed / len(measured.ops), **own_gated}
        for entry in harness.GATED_BESIDE:
            if entry["name"] in gated:
                print(f"  {entry['name']:<28} {gated[entry['name']]:>14.4f} {entry['unit']}")
    result = {
        "correct": not checker.problems,
        "attempted": len(measured.ops),
        "failed": failed,
        "metrics": metrics,
    }
    return result, gated


def report_machine(measured, gauge) -> None:
    """What the clock read, beside what is reported at reference speed."""
    good = [op for op in measured.ops if op.ok]
    factors = sorted(cpu / gauge.REFERENCE_S for _, cpu in gauge.samples)
    print(f"  machine: {len(factors)} gauge samples at {factors[0]:.2f} / "
          f"{factors[len(factors) // 2]:.2f} / {factors[-1]:.2f} (min / median / max) "
          f"of the reference's time; wall-clock latency p50 "
          f"{harness.percentile([op.latency_ms for op in good], 0.5):.3f} ms, "
          f"{1e3 * measured.callers * len(good) / sum(op.latency_ms for op in good):.2f} op/s")


def per_layer(spec: dict, layers: dict, tracer) -> dict:
    """Every declared per-layer metric; ``None`` (reported as 0) where this
    workload has no such layer."""
    spans = tracer.summary()
    layers = dict(layers)
    layers.setdefault("datasets.load_ms", 1e3 * spans["datasets.load"].total_s)
    layers.setdefault("datasets.querygen_ms", 1e3 * spans["datasets.querygen"].total_s)
    names = {entry["name"] for entry in spec["per_layer"]}
    unknown = sorted(set(layers) - names)
    if unknown:
        raise SystemExit(f"e2e benchmark: undeclared per-layer metrics {unknown}")
    return {name: layers.get(name) for name in names}


# ----------------------------------------------------------------------
# Many runs: every workload, repeats, the results file
# ----------------------------------------------------------------------
def run_in_subprocess(name: str, seed: int, seconds: float, trace: bool,
                      smoke: bool) -> tuple[dict, dict]:
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    print("\n".join(lines[:-2]))
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"e2e benchmark: {name} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2])["gated"]


def environment_stamp(seed: int, seconds: float) -> dict:
    import numpy

    return {
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_many(names: list[str], seed: int, seconds: float, trace: bool,
             repeat: int, smoke: bool, out: str | None) -> int:
    runs: dict[str, list[dict]] = {name: [] for name in names}
    ok = True
    for offset in range(repeat):
        for name in names:
            result, gated = run_in_subprocess(name, seed + offset, seconds, trace, smoke)
            ok = ok and result["correct"] and result["failed"] == 0
            row = {metric: entry["value"] for metric, entry in result["metrics"].items()}
            runs[name].append({**row, **gated})
    print(f"\n{'workload':<20} {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, rows in runs.items():
        for metric in rows[0]:
            values = [row[metric] for row in rows]
            q1, median, q3 = harness.quartiles(values)
            print(f"{name:<20} {metric:<22} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{harness.spread(values):>8.3f}")
    report = {"environment": environment_stamp(seed, seconds), "repeat": repeat,
              "trace": trace, "runs": runs}
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps({"ok": ok, "environment": report["environment"]}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload, in this process")
    parser.add_argument("--seed", type=int, default=0,
                        help="vertex numberings, op order, arrival schedule")
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="one-second runs on a few inputs, set-up once")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="store the runs for compare.py")
    args = parser.parse_args(argv)

    spec = harness.load_spec()
    seconds = args.seconds if args.seconds is not None else float(spec["run_seconds"])
    if args.smoke:
        seconds = 1.0
    declared = [entry["name"] for entry in spec["workloads"]]
    if args.workload is not None and args.workload not in declared:
        parser.error(f"unknown workload {args.workload!r}; declared: {declared}")

    if args.workload is not None and args.repeat == 1 and not args.out:
        # A terminated run unwinds through its ``finally`` blocks too.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        result, gated = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke
        )
        print(json.dumps({"gated": gated}))
        print(json.dumps(result))
        return 0 if result["correct"] and result["failed"] == 0 else 1
    names = [args.workload] if args.workload is not None else declared
    return run_many(names, args.seed, seconds, bool(args.trace), args.repeat,
                    args.smoke, args.out)


if __name__ == "__main__":
    sys.exit(main())
