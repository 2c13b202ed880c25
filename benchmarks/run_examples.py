#!/usr/bin/env python3
"""Examples smoke runner: execute every example, fail on traceback or drift.

Runs each ``examples/*.py`` as a subprocess against the (small,
synthesized) bundled datasets and checks two things:

1. **No traceback** — a non-zero exit code fails the run immediately.
2. **No output drift** — each example's stdout must contain a set of
   structural sentinel patterns (table headers, per-method rows, the
   final invariant lines).  Timings and trained-policy numbers vary run
   to run, so the sentinels pin the *shape* and the deterministic
   invariants of the output rather than exact values.

Training-heavy examples honour ``REPRO_EXAMPLES_EPOCHS``; the CI job
sets it low so the whole sweep finishes in a few minutes.

Usage::

    PYTHONPATH=src python benchmarks/run_examples.py [--epochs N]
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"

#: Sentinel regexes per example: every pattern must match the stdout.
SENTINELS: dict[str, list[str]] = {
    "quickstart.py": [
        r"data graph: Graph\(",
        r"trained \d+ epochs",
        r"plan for eval query 0: order=\[",
        r"candidate space=\d+(\.\d+)? kB",
        r"query \|  method \|  matches \|    #enum \| time",
        r"total enumeration calls \(lower is better\):",
        r"rl-qvo: \d+",
        r"hybrid: \d+",
    ],
    "protein_motif_search.py": [
        r"searching motifs in Graph\(",
        r"triangle: \|V\|=3 \|E\|=3",
        r"star-3: \|V\|=4",
        r"bridged-complex: \|V\|=5",
        r"square: \|V\|=4",
        r"ri: +\d+ matches, #enum= *\d+",
        r"random: +\d+ matches",
        r"first embeddings: \[",
    ],
    "social_network_analysis.py": [
        r"social graph: Graph\(",
        r"method \| total time \|  total #enum \| unsolved",
        r"qsi \|",
        r"ri \|",
        r"vf2pp \|",
        r"gql \|",
        r"veq \|",
        r"hybrid \|",
        r"rlqvo \|",
        r"shared enumeration procedure",
    ],
    "train_and_persist.py": [
        r"\[1/4\] pretraining",
        r"\[2/4\] incremental fine-tune",
        r"\[3/4\] saving model",
        r"\[4/4\] loading model back",
        r"pretrained-only on Q16: total #enum on eval queries = \d+",
        r"reloaded model reproduces the trained model's orders exactly\.",
    ],
    "custom_dataset_profiling.py": [
        r"registered dataset 'my-graph'",
        r"workload Q8: \d+ queries",
        r"est\. cost",
        r"flat CandidateSpace footprint across the workload",
        r"most order-sensitive query: \d+(\.\d+)?x spread",
    ],
    "service_workload.py": [
        r"service catalog: citeseer, yeast",
        r"request +\| dataset +\| +matches \| +#enum \| cached",
        r"citeseer/q0 \| citeseer \| +\d+ \| +\d+ \| hit",
        r"yeast/q3 \| yeast",
        r"warm wave: 8/8 cache hits; outcomes identical to the cold wave: True",
        r"service stats: 16 requests, cache hit rate \d+%",
        r"invalidated 4 citeseer plans; follow-up request cached=False",
    ],
    "http_serving.py": [
        r"serving citeseer at http://127\.0\.0\.1:\d+\n",
        r"cold request: +1372 matches, #enum=2329, cached=False",
        r"isomorph request: +1372 matches, #enum=2329, cached=True; "
        r"outcome identical: True",
        r"server stats: 2 request\(s\), cache hits 1, misses 1, "
        r"p95 latency \d+(\.\d+)?ms",
    ],
}


def run_example(name: str, env: dict[str, str]) -> list[str]:
    """Run one example; return a list of failure descriptions (empty = ok)."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
        timeout=900,
    )
    failures = []
    if proc.returncode != 0:
        tail = "\n".join((proc.stderr or proc.stdout).splitlines()[-15:])
        failures.append(f"exit code {proc.returncode}:\n{tail}")
        return failures
    for pattern in SENTINELS[name]:
        if not re.search(pattern, proc.stdout):
            failures.append(f"output drift: no match for sentinel /{pattern}/")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--epochs",
        type=int,
        default=int(os.environ.get("REPRO_EXAMPLES_EPOCHS", 3)),
        help="training epochs for the training-heavy examples",
    )
    args = parser.parse_args()

    env = dict(os.environ)
    env["REPRO_EXAMPLES_EPOCHS"] = str(args.epochs)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    # Coverage guard: every examples/*.py must have a sentinel entry, so
    # a newly added example cannot silently skip the smoke sweep.
    on_disk = {p.name for p in EXAMPLES.glob("*.py")}
    missing = sorted(on_disk - set(SENTINELS))
    stale = sorted(set(SENTINELS) - on_disk)
    if missing or stale:
        for name in missing:
            print(f"FAIL examples/{name} has no sentinel entry in {__file__}")
        for name in stale:
            print(f"FAIL sentinel entry {name!r} has no examples/ file")
        return 1

    broken = 0
    for name in SENTINELS:
        print(f"[run] {name} ...", flush=True)
        failures = run_example(name, env)
        if failures:
            broken += 1
            for failure in failures:
                print(f"  FAIL {failure}")
        else:
            print("  ok")
    if broken:
        print(f"\n{broken}/{len(SENTINELS)} examples failed")
        return 1
    print(f"\nall {len(SENTINELS)} examples passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
