"""Fig. 7 — ablation study of RL-QVO variants on EU2005.

Paper shape: the full model beats RL-QVO-RIF (random features) and
RL-QVO-NN (no message passing); GNN flavour matters little; removing the
entropy/validity rewards hurts on large query sets.  At bench scale we
assert every variant trains and evaluates, and that the GNN variants'
Σ#enum stays within a small band of the full model's (the paper's "not
bound to the GNN selection" observation).  Times are printed and checked
finite, never compared.
"""

import math

from repro.bench.experiments import fig7, joint_enum

_SIZES = (4, 8, 16)
_GNN_VARIANTS = ("rlqvo", "gat", "graphsage", "graphnn", "asap")


def test_fig7_ablation_variants(benchmark, harness, record):
    payload = benchmark.pedantic(
        lambda: record("fig7", fig7, harness, "eu2005", _SIZES),
        rounds=1,
        iterations=1,
    )
    assert set(payload) == {
        "rlqvo", "rif", "nn", "gat", "graphsage", "graphnn", "asap",
        "noent", "noval",
    }
    for variant, by_size in payload.items():
        for size in _SIZES:
            cell = by_size[size]
            assert math.isfinite(cell["time"]), (variant, size)
            assert math.isfinite(cell["enum_time"]), (variant, size)
            assert 0 <= cell["unsolved"] <= cell["queries"], (variant, size)
    # GNN flavours should be in the same ballpark on the default size,
    # over the queries both the flavour and the full model solved; a
    # flavour that shares no solved query with it compares nothing, and at
    # least one flavour must compare.
    reference = payload["rlqvo"][_SIZES[-1]]
    compared = 0
    for variant in _GNN_VARIANTS:
        value, base, shared = joint_enum(payload[variant][_SIZES[-1]], reference)
        compared += bool(shared)
        assert value <= 20.0 * base, variant
    assert compared, "no GNN flavour shares a solved query with rlqvo"
