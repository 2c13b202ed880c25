"""Fig. 10 — query processing time vs number of GNN layers.

Paper shape: one layer underperforms on large graphs (limited structural
context); beyond two layers the time rises near-linearly with depth on
small graphs because ordering cost dominates.  We assert all depths run
and that a decision's arithmetic (parameter count) grows with depth; its
wall-clock time is printed, not asserted.
"""

import math

from repro.bench.experiments import fig10

_LAYERS = (1, 2, 3)
_DATASETS = ("citeseer", "wordnet")


def test_fig10_gnn_depth_sweep(benchmark, harness, record):
    payload = benchmark.pedantic(
        lambda: record("fig10", fig10, harness, _DATASETS, _LAYERS, 16),
        rounds=1,
        iterations=1,
    )
    for dataset in _DATASETS:
        for layers in _LAYERS:
            cell = payload[dataset][layers]
            assert math.isfinite(cell["time"]), (dataset, layers)
            assert 0 <= cell["unsolved"] <= cell["queries"], (dataset, layers)


def test_fig10_forward_cost_grows_with_depth(harness):
    """A decision's arithmetic grows with depth: asserted on the parameter
    count; the time of the call the orderer makes
    (``PolicyNetwork.evaluate``) is printed, not asserted."""
    import time

    import numpy as np

    from repro.core import FeatureBuilder, PolicyNetwork
    from repro.datasets import dataset_stats, load_dataset
    from repro.nn.gnn import GraphContext

    data = load_dataset("citeseer")
    stats = dataset_stats("citeseer")
    query = harness.workload("citeseer", 16).eval[0]
    ctx = GraphContext.from_graph(query)
    parameters = {}
    for layers in (1, 4):
        config = harness.settings.rlqvo_config(num_gnn_layers=layers)
        policy = PolicyNetwork(config)
        builder = FeatureBuilder(data, config, stats)
        static = builder.static_features(query)
        features = builder.step_features(
            query, static, 0, np.zeros(query.num_vertices, dtype=bool)
        )
        mask = np.ones(query.num_vertices, dtype=bool)
        start = time.perf_counter()
        for _ in range(50):
            policy.evaluate(features, ctx, mask)
        elapsed = time.perf_counter() - start
        parameters[layers] = policy.num_parameters()
        print(f"fig10 layers={layers}: {parameters[layers]} parameters, "
              f"{elapsed / 50 * 1e6:.1f} us a decision")
    assert parameters[4] > parameters[1]
