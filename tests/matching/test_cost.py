"""Tests for the static order-cost estimator."""

import numpy as np
import pytest

from repro.errors import InvalidOrderError
from repro.graphs import erdos_renyi, extract_query
from repro.matching import (
    Enumerator,
    GQLFilter,
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
