"""Compare two result files written by ``run.py --repeat N --out FILE``.

    python3 benchmarks/e2e/compare.py BASE.json CHANGE.json

For every (workload, metric) pair — the end-to-end metrics declared in
``BENCHMARK.json`` and the counts gated beside them
(``harness.GATED_BESIDE``) — one row per workload: the median and
quartiles of both sides and a verdict against the metric's bound and
direction:

``regressed``   the change's median is worse than the base's by more than
                the bound;
``unresolved``  neither regressed nor comparable: the run-to-run spread
                of one side (interquartile distance over median) exceeds
                the bound, so "no change" cannot be told from a change;
``improved``    better by more than the bound and more than the base's
                own spread;
``unchanged``   anything else.

A bound of 0 marks an exact count, the same on every run of a commit
whatever the seed: *regressed* if any run of the change is worse than
every run of the base, *improved* if every run of the change is better
than every run of the base.

Exits non-zero when any pair regressed.
"""

from __future__ import annotations

import json
import sys

import harness


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The row's verdict; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:
        ours, theirs = [sign * x for x in base], [sign * x for x in change]
        if max(theirs) > max(ours):
            return "regressed"
        return "improved" if max(theirs) < min(ours) else "unchanged"
    _, base_median, _ = harness.quartiles(base)
    _, change_median, _ = harness.quartiles(change)
    if not base_median:
        return "unresolved"
    worse = sign * (change_median - base_median) / base_median
    if worse > bound:
        return "regressed"
    base_spread, change_spread = harness.spread(base), harness.spread(change)
    if max(base_spread, change_spread) > bound:
        return "unresolved"
    if -worse > max(bound, base_spread):
        return "improved"
    return "unchanged"


def compare(base: dict, change: dict, spec: dict) -> list[tuple]:
    """``(workload, metric, base stats, change stats, verdict)`` rows."""
    rows = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        base_runs = base["runs"].get(workload)
        change_runs = change["runs"].get(workload)
        if not base_runs or not change_runs:
            continue
        for entry in spec["end_to_end"] + harness.GATED_BESIDE:
            name = entry["name"]
            ours = [run[name] for run in base_runs if name in run]
            theirs = [run[name] for run in change_runs if name in run]
            if not ours or not theirs:
                continue
            rows.append((
                workload, name, harness.quartiles(ours), harness.quartiles(theirs),
                verdict(ours, theirs, entry["better"], entry["bound"]),
            ))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    files = []
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            files.append(json.load(handle))
    rows = compare(files[0], files[1], harness.load_spec())
    print(f"{'workload':<20} {'metric':<18} {'base q1/median/q3':>32} "
          f"{'change q1/median/q3':>32}  verdict")
    for workload, metric, ours, theirs, outcome in rows:
        def cell(stats):
            return "{:.3f}/{:.3f}/{:.3f}".format(*stats)
        print(f"{workload:<20} {metric:<18} {cell(ours):>32} {cell(theirs):>32}  {outcome}")
    regressed = [row for row in rows if row[4] == "regressed"]
    print(f"{len(rows)} pairs, {len(regressed)} regressed, "
          f"{sum(row[4] == 'unresolved' for row in rows)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
