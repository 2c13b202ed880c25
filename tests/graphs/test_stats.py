"""Tests for precomputed graph statistics."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.graphs import Graph, GraphStats, erdos_renyi
from repro.graphs.stats import label_histogram


@pytest.fixture()
def small() -> Graph:
    #    0(a) - 1(b) - 2(a)
    #      \   /
    #       3(c)
    return Graph([0, 1, 0, 2], [(0, 1), (1, 2), (0, 3), (1, 3)])


class TestHistograms:
    def test_label_histogram(self, small):
        assert label_histogram(small) == {0: 2, 1: 1, 2: 1}


class TestGraphStats:
    def test_label_counts(self, small):
        stats = GraphStats(small)
        assert stats.label_counts == {0: 2, 1: 1, 2: 1}
        assert stats.label_frequency(0) == 2
        assert stats.label_frequency(99) == 0

    def test_count_degree_greater(self, small):
        stats = GraphStats(small)
        assert stats.count_degree_greater(0) == 4
        assert stats.count_degree_greater(1) == 3
        assert stats.count_degree_greater(2) == 1
        assert stats.count_degree_greater(3) == 0

    def test_edge_label_frequency(self, small):
        stats = GraphStats(small)
        # Edges: (0a,1b) (1b,2a) (0a,3c) (1b,3c)
        assert stats.edge_label_frequency(0, 1) == 2
        assert stats.edge_label_frequency(1, 0) == 2  # symmetric
        assert stats.edge_label_frequency(0, 2) == 1
        assert stats.edge_label_frequency(1, 2) == 1
        assert stats.edge_label_frequency(0, 0) == 0

    def test_edge_label_frequency_same_label_pair(self):
        g = Graph([5, 5, 5], [(0, 1), (1, 2)])
        stats = GraphStats(g)
        assert stats.edge_label_frequency(5, 5) == 2

    @pytest.mark.parametrize("num_labels", [1, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_edge_label_frequency_is_the_per_edge_count(self, num_labels, seed):
        g = erdos_renyi(60, 150, num_labels, seed=seed)
        stats = GraphStats(g)
        # Two labels past the largest one: pairs with an absent label.
        labels = range(num_labels + 2)
        for a in labels:
            for b in labels:
                expected = sum(
                    1 for u, v in g.edges()
                    if sorted((g.label(u), g.label(v))) == sorted((a, b))
                )
                assert stats.edge_label_frequency(a, b) == expected, (a, b)

    def test_edge_label_frequency_without_edges(self):
        stats = GraphStats(Graph([0, 1], []))
        assert stats.edge_label_frequency(0, 1) == 0

    def test_with_label_neighbors_is_the_per_label_count_rule(self, data_graph, data_stats):
        everyone = np.arange(data_graph.num_vertices)
        for lab in data_graph.distinct_labels() + [99]:
            have = np.array(
                [data_graph.neighbor_labels(v).count(lab) for v in everyone.tolist()]
            )
            for at_least in range(0, int(have.max()) + 2):
                got = data_stats.with_label_neighbors(everyone, lab, at_least)
                assert np.array_equal(got, everyone[have >= at_least]), (lab, at_least)

    def test_with_label_neighbors_filters_a_subset_in_order(self, small):
        stats = GraphStats(small)
        # a-labeled neighbours: 0 has none, 1 has two, 2 has none, 3 has one.
        assert stats.with_label_neighbors(np.array([1, 3]), 0, 1).tolist() == [1, 3]
        assert stats.with_label_neighbors(np.array([0, 1, 3]), 0, 2).tolist() == [1]
        assert stats.with_label_neighbors(np.array([0, 2]), 0, 1).tolist() == []
        assert stats.with_label_neighbors(np.array([], dtype=np.int64), 0, 1).size == 0

    def test_label_neighbor_index_holds_one_entry_per_edge_slot(self, data_graph, data_stats):
        index = data_stats._label_neighbor_index
        assert sum(arr.size for arr in index.values()) == 2 * data_graph.num_edges
        assert GraphStats(Graph([0, 1], []))._label_neighbor_index == {}

    def test_label_neighbor_lookups_are_thread_safe_beyond_any_label_cap(self):
        # 200 labels (the per-label count cache this index replaced held
        # 64 and raised KeyError when one thread evicted between another's
        # get and move_to_end), 16 threads on 2 cores, each walking every
        # label against one shared, initially unbuilt GraphStats.
        data = erdos_renyi(1200, 6000, 200, seed=5)
        stats = GraphStats(data)
        everyone = np.arange(data.num_vertices)
        expected = {
            lab: everyone[
                np.bincount(
                    np.repeat(everyone, data.degrees)[data.labels[data.indices] == lab],
                    minlength=everyone.size,
                )
                >= 1
            ]
            for lab in data.distinct_labels()
        }
        labels = sorted(expected)
        start = threading.Barrier(16)

        def walk(offset: int) -> int:
            start.wait(timeout=30)
            agree = 0
            for _ in range(3):
                for lab in labels[offset:] + labels[:offset]:
                    got = stats.with_label_neighbors(everyone, lab, 1)
                    agree += bool(np.array_equal(got, expected[lab]))
            return agree

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(16) as pool:
                futures = [pool.submit(walk, 12 * i) for i in range(16)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [3 * len(labels)] * 16
