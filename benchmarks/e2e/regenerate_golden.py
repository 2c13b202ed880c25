"""Rewrite ``golden/num_matches.json`` from one full-size run of every
workload.  Only for a change that alters the inputs (counts, limits,
datasets): a program change that moves ``num_matches`` is a bug.

    python3 benchmarks/e2e/regenerate_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402


def main() -> None:
    harness.use_repo_sources()
    from run import workload_classes
    from verify import GOLDEN_PATH, Checker

    recorded = {}
    for name, cls in workload_classes().items():
        # The checker's complaints about the old file are not kept.
        workload, checker = cls(seed=0, seconds=0.0), Checker(0)
        try:
            workload.setup()
            workload.prepare()
            workload.verify(workload.measure(), checker)
        finally:
            workload.teardown()
        recorded[name] = checker.observed_counts
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


if __name__ == "__main__":
    main()
