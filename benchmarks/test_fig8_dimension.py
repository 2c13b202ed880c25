"""Fig. 8 — query processing time vs GCN output dimension.

Paper shape: a U-ish curve with the sweet spot around 64 — too-small
dimensions underfit, too-large dimensions inflate ordering time.  At
bench scale we assert all dimensions run and that a decision's
arithmetic grows with dimension (the mechanism behind the right half of
the paper's curve); its wall-clock time is printed, not asserted.
"""

import math


def test_fig8_output_dimension_sweep(benchmark, record):
    payload = benchmark.pedantic(lambda: record("fig8"), rounds=1, iterations=1)
    assert payload
    for dataset, by_dim in payload.items():
        for dim, cell in by_dim.items():
            assert math.isfinite(cell["time"]), (dataset, dim)
            assert 0 <= cell["unsolved"] <= cell["queries"], (dataset, dim)


def test_fig8_ordering_cost_grows_with_dimension(harness):
    """Mechanism check: a decision's arithmetic grows with the dimension.

    The assertion is on a count — parameters, i.e. multiply–adds per
    vertex and decision; the time of the call the orderer makes
    (``PolicyNetwork.evaluate``) is printed, not asserted.
    """
    import time

    import numpy as np

    from repro.core import FeatureBuilder, PolicyNetwork
    from repro.datasets import dataset_stats, load_dataset
    from repro.nn.gnn import GraphContext

    data = load_dataset("citeseer")
    stats = dataset_stats("citeseer")
    workload = harness.workload("citeseer", 16)
    query = workload.eval[0]
    ctx = GraphContext.from_graph(query)
    parameters = {}
    for dim in (16, 256):
        config = harness.settings.rlqvo_config(hidden_dim=dim)
        policy = PolicyNetwork(config)
        builder = FeatureBuilder(data, config, stats)
        static = builder.static_features(query)
        features = builder.step_features(
            query, static, 0, np.zeros(query.num_vertices, dtype=bool)
        )
        mask = np.ones(query.num_vertices, dtype=bool)
        start = time.perf_counter()
        for _ in range(30):
            policy.evaluate(features, ctx, mask)
        elapsed = time.perf_counter() - start
        parameters[dim] = policy.num_parameters()
        print(f"fig8 dim={dim}: {parameters[dim]} parameters, "
              f"{elapsed / 30 * 1e6:.1f} us a decision")
    assert parameters[256] > parameters[16]
