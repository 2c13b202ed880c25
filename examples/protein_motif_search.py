#!/usr/bin/env python3
"""Protein-interaction motif search (biology scenario).

The paper motivates subgraph matching with graphlet/motif analysis in
protein-protein interaction networks [2].  This example searches the
(synthesized) Yeast PPI network for classic interaction motifs —
triangles, stars and a "bridged complex" — through the prepare-once
facade: one :class:`repro.Matcher` binds the network, each motif is
planned once, alternative orderings are compared by *re-planning* over
the same Phase (1) artifacts (one shared candidate space per motif), and
the first few concrete embeddings come from one more execution of the
plan under ``match_limit=3``, which stops the search at the third match.

Usage::

    python examples/protein_motif_search.py
"""

from __future__ import annotations

import numpy as np

from repro import Enumerator, Graph, Matcher, dataset_stats, load_dataset


def motif_catalogue(data: Graph) -> dict[str, Graph]:
    """Small interaction motifs over the dataset's most common labels."""
    # Use the three most frequent labels so motifs actually occur.
    labels = sorted(
        data.distinct_labels(), key=data.label_frequency, reverse=True
    )[:3]
    a, b, c = (labels + labels)[:3]
    return {
        # Three proteins all pairwise interacting (complex core).
        "triangle": Graph([a, b, c], [(0, 1), (1, 2), (0, 2)]),
        # One hub protein with three partners (signalling hub).
        "star-3": Graph([a, b, b, c], [(0, 1), (0, 2), (0, 3)]),
        # Two complexes sharing a bridge protein.
        "bridged-complex": Graph(
            [a, b, c, a, b],
            [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)],
        ),
        # A 4-cycle: alternative interaction pathway.
        "square": Graph([a, b, a, b], [(0, 1), (1, 2), (2, 3), (3, 0)]),
    }


def main() -> None:
    data = load_dataset("yeast")
    stats = dataset_stats("yeast")
    print(f"searching motifs in {data} (synthesized Yeast PPI stand-in)\n")

    # Prepare once: GQL filter + RI ordering + iterative enumeration,
    # bound to the PPI network.  Every motif below reuses this state.
    matcher = Matcher(data, filter="gql", orderer="ri",
                      match_limit=50_000, time_limit=10.0, stats=stats)
    compared_orderers = ("ri", "vf2pp", "gql", "random")
    # Records the first three embeddings and stops the search there.
    first_three = Enumerator(match_limit=3, time_limit=10.0, record_matches=True)

    for motif_name, motif in motif_catalogue(data).items():
        rng = np.random.default_rng(0)
        # One plan per motif: all compared orders re-plan over the same
        # Phase (1) artifacts, sharing a single CandidateSpace build.
        plan = matcher.plan(motif, rng)
        if not plan.matchable:
            print(f"{motif_name:>16}: no candidates — motif absent")
            continue
        print(f"{motif_name:>16}: |V|={motif.num_vertices} "
              f"|E|={motif.num_edges} "
              f"candidate sizes={list(plan.candidate_counts)}")
        for name in compared_orderers:
            replanned = plan if name == "ri" else matcher.replan(plan, name, rng)
            result = matcher.execute(replanned)
            status = "" if result.solved and not result.enumeration.limit_reached \
                else " (truncated)"
            print(f"{'':>16}  {name:>6}: {result.num_matches:>7} matches, "
                  f"#enum={result.num_enumerations:>8}, "
                  f"{result.enum_time * 1e3:7.1f}ms{status}")
        first = matcher.execute(plan, first_three).enumeration.matches
        print(f"{'':>16}  first embeddings: "
              + "; ".join(str(list(m)) for m in first))
        print()


if __name__ == "__main__":
    main()
