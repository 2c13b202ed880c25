"""Fig. 11 — enumeration time vs number of matches (RL-QVO vs Hybrid).

Paper shape: at small match caps the two methods are indistinguishable;
as the cap grows toward ALL, RL-QVO's better orders pay off increasingly.
We assert that, for both methods, Σ#enum over the queries solved at two
consecutive caps does not shrink as the cap grows — a run under a larger
cap replays the smaller cap's search and continues it — and record the
series.  Two caps that share no solved query compare nothing; at least
one consecutive pair must share one.  Times are printed and checked
finite, never compared.
"""

import math

from repro.bench.experiments import fig11, joint_enum

_LIMITS = (100, 1_000, 10_000, None)


def test_fig11_enumeration_vs_match_count(benchmark, harness, record):
    payload = benchmark.pedantic(
        lambda: record("fig11", fig11, harness, "youtube", 16, _LIMITS),
        rounds=1,
        iterations=1,
    )
    labels = ["100", "1000", "10000", "ALL"]
    assert list(payload) == labels
    for method in ("rlqvo", "hybrid"):
        series = [payload[label][method] for label in labels]
        for cell in series:
            assert math.isfinite(cell["enum_time"]), method
            assert 0 <= cell["unsolved"] <= cell["queries"], method
        pairs = [joint_enum(lo, hi) for lo, hi in zip(series, series[1:])]
        assert any(shared for _, _, shared in pairs), method
        for smaller_cap, larger_cap, _ in pairs:
            assert larger_cap >= smaller_cap, method
