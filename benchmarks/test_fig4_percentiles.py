"""Fig. 4 — cumulative query-time distribution + unsolved queries.

Paper shape: the gap between RL-QVO and the baselines grows with the
percentile (hard queries benefit most), and RL-QVO leaves the fewest
unsolved queries.  We assert structural properties: percentile curves are
monotone and unsolved counts lie within the query set.  Times are
printed, never compared.

RL-QVO's Σ#enum against each baseline's, over the queries both solved,
is printed and not asserted: "no worse than the worst baseline" fails at
bench scale (ROADMAP L), on citeseer at the smoke size and on yeast at
full size.
"""

from repro.bench.experiments import fig4


def test_fig4_percentile_distribution(benchmark, harness, record):
    payload = benchmark.pedantic(
        lambda: record(
            "fig4", fig4, harness, ("citeseer", "yeast", "wordnet")
        ),
        rounds=1,
        iterations=1,
    )
    for dataset, per_method in payload.items():
        for method, cell in per_method.items():
            values = [v for _, v in cell["percentiles"]]
            assert values == sorted(values), (dataset, method)
            assert 0 <= cell["unsolved"] <= cell["queries"], (dataset, method)
