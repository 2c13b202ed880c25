"""Tests for the static order-cost estimator.

``cost_oracle`` is the loop the list-based estimate replaced; the two
must return the same double on every valid order, connected or not.
"""

import cost_oracle
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.datasets import load_dataset, query_workload
from repro.errors import InvalidOrderError
from repro.graphs import Graph, erdos_renyi, extract_query
from repro.matching import (
    CandidateSets,
    Enumerator,
    GQLFilter,
    RIOrderer,
    estimate_order_cost,
)
from repro.matching.ordering import connected_permutations


@pytest.fixture(scope="module")
def instance():
    data = erdos_renyi(60, 160, 2, seed=61)
    query = extract_query(data, 5, np.random.default_rng(7))
    candidates = GQLFilter().filter(query, data)
    return query, data, candidates


class TestEstimate:
    def test_positive_and_finite(self, instance):
        query, data, candidates = instance
        for i, order in enumerate(connected_permutations(query)):
            if i >= 10:
                break
            cost = estimate_order_cost(query, data, candidates, order)
            assert np.isfinite(cost) and cost > 0

    def test_selective_first_vertex_is_cheaper(self, instance):
        query, data, candidates = instance
        sizes = candidates.sizes()
        small_first = min(range(len(sizes)), key=sizes.__getitem__)
        big_first = max(range(len(sizes)), key=sizes.__getitem__)
        if sizes[small_first] == sizes[big_first]:
            pytest.skip("degenerate candidate sizes")
        # Compare orders that differ in the starting vertex.
        orders = {order[0]: order for order in connected_permutations(query)}
        if small_first in orders and big_first in orders:
            cheap = estimate_order_cost(query, data, candidates, orders[small_first])
            costly = estimate_order_cost(query, data, candidates, orders[big_first])
            assert cheap < costly

    def test_invalid_order_rejected(self, instance):
        query, data, candidates = instance
        with pytest.raises(InvalidOrderError):
            estimate_order_cost(query, data, candidates, [0, 0, 1, 2, 3])

    def test_estimate_correlates_with_measured_enum(self, instance):
        """Spearman-style sanity: over many orders, the estimate should
        correlate positively with real #enum (it is a coarse model, so we
        only require a clearly positive rank correlation)."""
        query, data, candidates = instance
        enumerator = Enumerator(match_limit=None)
        estimates, actuals = [], []
        for i, order in enumerate(connected_permutations(query)):
            if i >= 40:
                break
            estimates.append(estimate_order_cost(query, data, candidates, order))
            actuals.append(
                enumerator.run(query, data, candidates, order).num_enumerations
            )
        est_ranks = np.argsort(np.argsort(estimates))
        act_ranks = np.argsort(np.argsort(actuals))
        correlation = np.corrcoef(est_ranks, act_ranks)[0, 1]
        assert correlation > 0.2


@st.composite
def costed_orders(draw):
    """Any small query — disconnected and one-vertex ones included — any
    candidate sets (empty ones too) and any permutation as the order."""
    n = draw(st.integers(1, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
    query = Graph([0] * n, edges)
    nv = draw(st.integers(1, 40))
    data = erdos_renyi(
        nv, draw(st.integers(0, min(80, nv * (nv - 1) // 2))), 2,
        seed=draw(st.integers(0, 2**16)),
    )
    ids = st.integers(0, data.num_vertices - 1)
    candidates = CandidateSets.from_arrays(
        [sorted(draw(st.sets(ids, max_size=12))) for _ in range(n)]
    )
    order = draw(st.permutations(range(n)))
    return query, data, candidates, order


class TestAgainstOracle:
    @given(costed_orders())
    def test_same_double_on_any_order(self, instance):
        query, data, candidates, order = instance
        got = estimate_order_cost(query, data, candidates, order)
        want = cost_oracle.estimate_order_cost(query, data, candidates, order)
        assert got.hex() == want.hex()

    @pytest.mark.parametrize("dataset", ["yeast", "citeseer"])
    def test_same_double_on_planned_orders(self, dataset):
        data = load_dataset(dataset)
        rng = np.random.default_rng(0)
        for size in (4, 8, 16):
            workload = query_workload(dataset, size, count=8, seed=0, data=data)
            for query in workload.all_queries[:8]:
                candidates = GQLFilter().filter(query, data)
                for order in (
                    RIOrderer().order(query, data),
                    rng.permutation(size).tolist(),
                ):
                    got = estimate_order_cost(query, data, candidates, order)
                    want = cost_oracle.estimate_order_cost(
                        query, data, candidates, order
                    )
                    assert got.hex() == want.hex()

    @pytest.mark.parametrize(
        "order", [[0, 1, 2, 3], [0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 5], [-1, 0, 1, 2, 3]]
    )
    def test_invalid_orders_raise_like_the_oracle(self, instance, order):
        query, data, candidates = instance
        for estimate in (estimate_order_cost, cost_oracle.estimate_order_cost):
            with pytest.raises(InvalidOrderError):
                estimate(query, data, candidates, order)

    def test_uncovered_query_raises(self, instance):
        query, data, candidates = instance
        short = CandidateSets.from_arrays(
            [candidates.array(u) for u in range(query.num_vertices - 1)]
        )
        with pytest.raises(InvalidOrderError):
            estimate_order_cost(query, data, short, list(range(query.num_vertices)))
