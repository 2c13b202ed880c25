"""Tests for graph/order validation helpers."""

import pytest

from repro.errors import InvalidOrderError
from repro.graphs import Graph, check_order
from repro.graphs.validation import check_graph, is_connected_order


def path4() -> Graph:
    return Graph([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3)])


class TestCheckGraph:
    def test_generated_graphs_pass(self, data_graph):
        check_graph(data_graph)

    def test_empty_graph_passes(self):
        check_graph(Graph([], []))


class TestConnectedOrder:
    def test_connected_orders(self):
        g = path4()
        assert is_connected_order(g, [0, 1, 2, 3])
        assert is_connected_order(g, [2, 1, 0, 3])
        assert is_connected_order(g, [1, 0, 2, 3])

    def test_disconnected_order(self):
        g = path4()
        assert not is_connected_order(g, [0, 2, 1, 3])
        assert not is_connected_order(g, [0, 3, 1, 2])

    def test_singleton_order_connected(self):
        assert is_connected_order(Graph([0], []), [0])


class TestCheckOrder:
    def test_valid_order_passes(self):
        check_order(path4(), [1, 2, 3, 0])

    def test_non_permutation_rejected(self):
        with pytest.raises(InvalidOrderError, match="permutation"):
            check_order(path4(), [0, 1, 2])
        with pytest.raises(InvalidOrderError, match="permutation"):
            check_order(path4(), [0, 1, 2, 2])

    def test_disconnected_order_rejected(self):
        with pytest.raises(InvalidOrderError, match="not connected"):
            check_order(path4(), [0, 2, 1, 3])

    def test_connectivity_check_can_be_disabled(self):
        check_order(path4(), [0, 2, 1, 3], connected=False)

    def test_disconnected_query_skips_connectivity(self):
        g = Graph([0] * 4, [(0, 1), (2, 3)])
        check_order(g, [0, 2, 1, 3])  # query itself disconnected: allowed
