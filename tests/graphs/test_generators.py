"""Tests for the random graph generators."""

import numpy as np
import pytest

from repro.errors import InvalidGraphError
from repro.graphs import Graph, chung_lu, connect_components, erdos_renyi
from repro.graphs.generators import powerlaw_degree_weights, zipf_labels
from repro.graphs.validation import check_graph


class TestZipfLabels:
    def test_all_labels_present_when_room(self, rng):
        labels = zipf_labels(100, 10, 1.2, rng)
        assert set(labels.tolist()) == set(range(10))

    def test_skew_concentrates_mass(self, rng):
        labels = zipf_labels(5000, 10, 2.0, rng)
        counts = np.bincount(labels, minlength=10)
        assert counts[0] > counts[5] > 0

    def test_zero_skew_roughly_uniform(self, rng):
        labels = zipf_labels(10000, 4, 0.0, rng)
        counts = np.bincount(labels, minlength=4)
        assert counts.min() > 0.15 * 10000

    def test_invalid_label_count(self, rng):
        with pytest.raises(InvalidGraphError):
            zipf_labels(10, 0, 1.0, rng)


class TestErdosRenyi:
    def test_exact_edge_count(self):
        g = erdos_renyi(50, 120, 4, seed=0)
        assert g.num_edges == 120
        check_graph(g)

    def test_too_many_edges_rejected(self):
        with pytest.raises(InvalidGraphError):
            erdos_renyi(4, 100, 2, seed=0)

    def test_deterministic_in_seed(self):
        assert erdos_renyi(30, 60, 3, seed=5) == erdos_renyi(30, 60, 3, seed=5)

    def test_different_seeds_differ(self):
        assert erdos_renyi(30, 60, 3, seed=5) != erdos_renyi(30, 60, 3, seed=6)


class TestChungLu:
    def test_average_degree_close_to_target(self):
        g = chung_lu(3000, 8.0, 5, seed=1)
        assert g.average_degree == pytest.approx(8.0, rel=0.25)
        check_graph(g)

    def test_powerlaw_has_skewed_degrees(self):
        g = chung_lu(3000, 6.0, 5, exponent=2.2, seed=2)
        degrees = np.sort(g.degrees)[::-1]
        # Top vertex should dominate the median by a wide margin.
        assert degrees[0] > 5 * max(np.median(degrees), 1)

    def test_deterministic_in_seed(self):
        assert chung_lu(300, 4.0, 3, seed=9) == chung_lu(300, 4.0, 3, seed=9)

    def test_invalid_exponent(self):
        with pytest.raises(InvalidGraphError):
            powerlaw_degree_weights(10, 4.0, 1.0)

    def test_weights_mean_matches_target(self):
        w = powerlaw_degree_weights(1000, 7.0, 2.5)
        assert w.mean() == pytest.approx(7.0, rel=0.1)


class TestConnectComponents:
    def test_connects_disconnected_graph(self, rng):
        g = Graph([0] * 6, [(0, 1), (2, 3), (4, 5)])
        connected = connect_components(g, rng)
        assert connected.is_connected()
        assert connected.num_edges == 5  # 3 original + 2 bridges

    def test_noop_on_connected_graph(self, rng):
        g = Graph([0, 1, 2, 0, 1], [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert connect_components(g, rng) is g

    def test_noop_on_empty_graph(self, rng):
        g = Graph([], [])
        assert connect_components(g, rng) is g
