"""Fig. 5 — average enumeration time vs query size, per dataset.

Paper shape: all methods share one enumerator, so enumeration effort
isolates order quality; gaps between methods widen as |V(q)| grows.
Assertions: every (dataset, method, size) cell is populated and RL-QVO's
Σ#enum stays within a small factor of Hybrid's.  Times are printed and
checked finite, never compared.
"""

import math

from repro.bench.experiments import joint_enum
from repro.bench.reporting import geometric_mean


def test_fig5_enumeration_time_by_query_size(benchmark, record):
    payload = benchmark.pedantic(lambda: record("fig5"), rounds=1, iterations=1)
    assert payload
    for dataset, per_method in payload.items():
        sizes = set(next(iter(per_method.values())))
        assert all(set(v) == sizes for v in per_method.values())
        for method, by_size in per_method.items():
            for size, cell in by_size.items():
                value = cell["enum_time"]
                assert math.isfinite(value) and value >= 0, (dataset, method, size)
                assert 0 <= cell["unsolved"] <= cell["queries"], (dataset, method, size)
        # Reduced-scale shape: RL-QVO's Σ#enum, over the queries both
        # solved, stays within a geometric-mean factor of Hybrid's across
        # sizes (per-size wins need the paper's training budget; see
        # README *Reproduction status*).  A size where the two share no solved query
        # compares nothing, so it is left out, and at least one must remain.
        joint = [
            joint_enum(per_method["rlqvo"][s], per_method["hybrid"][s])
            for s in sorted(sizes)
        ]
        compared = [(r, h) for r, h, shared in joint if shared]
        assert compared, dataset
        rlqvo_geo = geometric_mean([r for r, _ in compared], floor=1)
        hybrid_geo = geometric_mean([h for _, h in compared], floor=1)
        assert rlqvo_geo <= 6.0 * hybrid_geo, dataset
