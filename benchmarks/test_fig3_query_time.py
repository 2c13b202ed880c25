"""Fig. 3 — average query processing time, 7 methods × 6 datasets.

Paper shape: RL-QVO generally fastest (up to ~2 orders of magnitude over
VEQ/Hybrid on Citeseer/DBLP).  At benchmark scale we assert the weaker,
robust form on ``#enum``, which every method's shared enumerator makes
the measure of order quality (Sec. IV-C): RL-QVO is never
catastrophically worse than the Hybrid baseline it extends.  Times are
printed and checked finite and positive, never compared.
"""

import math

from repro.bench.experiments import fig3, joint_enum
from repro.bench.reporting import geometric_mean


def test_fig3_average_query_processing_time(benchmark, harness, record):
    payload = benchmark.pedantic(
        lambda: record("fig3", fig3, harness), rounds=1, iterations=1
    )
    assert len(payload) == 6
    for dataset, per_method in payload.items():
        assert len(per_method) == 7
        for method, cell in per_method.items():
            assert math.isfinite(cell["time"]) and cell["time"] > 0, (dataset, method)
            assert 0 <= cell["unsolved"] <= cell["queries"], (dataset, method)
    # Paper shape, reduced-scale form: across datasets the learned order
    # keeps RL-QVO's Σ#enum, over the queries both solved, within a small
    # geometric-mean factor of Hybrid's (the per-dataset wins require the
    # paper's full training budget; a single undertrained dataset must
    # not fail the suite).  A dataset where the two share no solved query
    # compares nothing, so it is left out, and at least one must remain.
    joint = [joint_enum(m["rlqvo"], m["hybrid"]) for m in payload.values()]
    compared = [(r, h) for r, h, shared in joint if shared]
    assert compared, "no dataset has a query both rlqvo and hybrid solved"
    rlqvo_geo = geometric_mean([r for r, _ in compared], floor=1)
    hybrid_geo = geometric_mean([h for _, h in compared], floor=1)
    assert rlqvo_geo <= 3.0 * hybrid_geo
