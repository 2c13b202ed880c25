"""Output verifier: only truths that do not depend on the matching order.

* per-query ``num_matches`` (= min(total, limit)) against
  ``golden/num_matches.json`` — under any ``--seed``, since renumbering
  a query's vertices cannot change the count
  (``regenerate_golden.py`` rewrites the file);
* every embedding of a seeded sample (``SAMPLED_OPS`` ops ×
  ``EMBEDDINGS_PER_OP`` embeddings = 1 000 per workload) through
  ``repro.matching.verify.verify_all``;
* isomorph consistency: a relabeled query's match set is the base
  query's under the permutation;
* two orderers (learned and RI) agree on ``num_matches``.

``#enum`` is reported, never pinned: making the learned order better
must be able to move it.  All of this runs after the clock has stopped.
"""

from __future__ import annotations

import json

import numpy as np

from harness import HERE

from repro.matching.verify import verify_all

GOLDEN_PATH = HERE / "golden" / "num_matches.json"


class Checker:
    """Collects mismatches; each one counts as a failed op."""

    SAMPLED_OPS = 20
    EMBEDDINGS_PER_OP = 50

    def __init__(self, seed: int):
        self.seed = seed
        self.problems: list[str] = []
        self.checks = 0
        #: Filled by :meth:`golden`; ``regenerate_golden.py`` stores it.
        self.observed_counts: dict = {}

    def sample(self, count: int) -> list[int]:
        """A seeded sample of op indices (all of them when few)."""
        rng = np.random.default_rng([self.seed, 4])
        size = min(self.SAMPLED_OPS, count)
        return sorted(int(i) for i in rng.choice(count, size=size, replace=False))

    def equal(self, what: str, got, want) -> None:
        self.checks += 1
        if got != want:
            self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def embeddings(self, what: str, query, data, matches) -> None:
        self.checks += len(matches)
        self.problems.extend(
            f"{what}: {problem}" for problem in verify_all(query, data, matches)
        )

    def isomorph(self, what: str, base_matches, relabeled_matches, permutation) -> None:
        """``permutation[old] = new``: embedding ``m`` of the base query is
        ``m'`` of the relabeled one with ``m'[permutation[u]] = m[u]``."""
        self.checks += 1
        carried = {
            tuple(match[new] for new in permutation) for match in relabeled_matches
        }
        if carried != {tuple(match) for match in base_matches}:
            self.problems.append(f"{what}: match set differs from the base query's")

    def golden(self, workload: str, counts: dict) -> None:
        """Compare ``{class: {position: num_matches}}`` with the golden
        file.  A smoke run compares the prefix it ran."""
        self.observed_counts = counts
        with open(GOLDEN_PATH, encoding="utf-8") as handle:
            recorded = json.load(handle).get(workload, {})
        for group, by_position in counts.items():
            for position, got in by_position.items():
                self.equal(
                    f"{workload} {group}[{position}] num_matches",
                    got, recorded.get(group, {}).get(position),
                )
