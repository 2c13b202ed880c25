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

from repro.bench.experiments import joint_enum


def test_fig11_enumeration_vs_match_count(benchmark, record):
    payload = benchmark.pedantic(lambda: record("fig11"), rounds=1, iterations=1)
    assert list(payload)[-1] == "ALL"
    for method in ("rlqvo", "hybrid"):
        series = [cells[method] for cells in payload.values()]
        for cell in series:
            assert math.isfinite(cell["enum_time"]), method
            assert 0 <= cell["unsolved"] <= cell["queries"], method
        pairs = [joint_enum(lo, hi) for lo, hi in zip(series, series[1:])]
        assert any(shared for _, _, shared in pairs), method
        for smaller_cap, larger_cap, _ in pairs:
            assert larger_cap >= smaller_cap, method
