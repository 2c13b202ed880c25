"""Tests for the heuristic ordering baselines."""

import numpy as np
import pytest

from repro.errors import FilterError
from repro.graphs import Graph, check_order
from repro.matching import (
    GQLFilter,
    GQLOrderer,
    LDFFilter,
    ORDERERS,
    QSIOrderer,
    RIOrderer,
    RandomOrderer,
    VEQOrderer,
    VF2PPOrderer,
)
from repro.matching.ordering import nec_classes

HEURISTIC_ORDERERS = [
    QSIOrderer,
    RIOrderer,
    VF2PPOrderer,
    GQLOrderer,
    VEQOrderer,
]


@pytest.fixture(scope="module")
def instance(request):
    from repro.graphs import GraphStats, erdos_renyi, extract_query

    data = erdos_renyi(60, 150, 3, seed=2)
    rng = np.random.default_rng(8)
    query = extract_query(data, 7, rng)
    stats = GraphStats(data)
    candidates = GQLFilter().filter(query, data, stats)
    return query, data, candidates, stats


class TestAllOrderers:
    @pytest.mark.parametrize("orderer_cls", HEURISTIC_ORDERERS)
    def test_valid_connected_permutation(self, orderer_cls, instance):
        query, data, candidates, stats = instance
        order = orderer_cls().order(query, data, candidates, stats)
        check_order(query, order)

    @pytest.mark.parametrize("orderer_cls", HEURISTIC_ORDERERS)
    def test_deterministic(self, orderer_cls, instance):
        query, data, candidates, stats = instance
        a = orderer_cls().order(query, data, candidates, stats)
        b = orderer_cls().order(query, data, candidates, stats)
        assert a == b

    @pytest.mark.parametrize("orderer_cls", HEURISTIC_ORDERERS)
    def test_single_vertex_query(self, orderer_cls, instance):
        _, data, _, stats = instance
        query = Graph([data.label(0)], [])
        candidates = LDFFilter().filter(query, data, stats)
        assert orderer_cls().order(query, data, candidates, stats) == [0]


class TestRI:
    def test_starts_at_max_degree(self, instance):
        query, data, candidates, stats = instance
        order = RIOrderer().order(query, data, candidates, stats)
        assert query.degree(order[0]) == query.degrees.max()

    def test_structure_only_no_data_needed(self, instance):
        query, *_ = instance
        order = RIOrderer().order(query)
        check_order(query, order)

    def test_rng_breaks_ties_randomly(self):
        # A 4-cycle is fully symmetric: every vertex has degree 2.
        cycle = Graph([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (3, 0)])
        starts = {
            RIOrderer().order(cycle, rng=np.random.default_rng(seed))[0]
            for seed in range(30)
        }
        assert len(starts) > 1  # random tie-breaking engaged

    def test_paper_example_prefers_connected_growth(self):
        # Star + pendant: after the hub, neighbours of ordered set come first.
        star = Graph([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        order = RIOrderer().order(star)
        assert order[0] == 0


class TestQSI:
    def test_requires_data_or_stats(self, instance):
        query, *_ = instance
        with pytest.raises(FilterError):
            QSIOrderer().order(query)

    def test_starts_with_rarest_edge(self):
        # Data graph where the (0,1)-labeled edge is rare.
        data = Graph(
            [0, 1, 2, 2, 2, 2],
            [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 3), (4, 5)],
        )
        query = Graph([0, 1, 2], [(0, 1), (0, 2)])
        order = QSIOrderer().order(query, data)
        # Rarest query edge label pair is (0,1): one occurrence in data.
        assert set(order[:2]) == {0, 1}

    def test_edgeless_query_by_label_rarity(self):
        data = Graph([0, 0, 0, 1], [(0, 1), (1, 2), (2, 3)])
        query = Graph([0, 1], [])
        order = QSIOrderer().order(query, data)
        assert order[0] == 1  # label 1 rarer in data


class TestVF2PP:
    def test_requires_data_or_stats(self, instance):
        query, *_ = instance
        with pytest.raises(FilterError):
            VF2PPOrderer().order(query)

    def test_starts_with_rarest_label(self):
        data = Graph([0] * 9 + [1], [(i, i + 1) for i in range(9)])
        query = Graph([0, 1, 0], [(0, 1), (1, 2)])
        order = VF2PPOrderer().order(query, data)
        assert order[0] == 1


class TestCandidateBasedOrderers:
    @pytest.mark.parametrize("orderer_cls", [GQLOrderer, VEQOrderer])
    def test_require_candidates(self, orderer_cls, instance):
        query, data, _, stats = instance
        with pytest.raises(FilterError):
            orderer_cls().order(query, data, None, stats)

    def test_gql_starts_with_smallest_candidate_set(self, instance):
        query, data, candidates, stats = instance
        order = GQLOrderer().order(query, data, candidates, stats)
        assert candidates.size(order[0]) == min(candidates.sizes())


class TestVEQNec:
    def test_nec_classes_group_equivalent_leaves(self):
        # Two leaves with the same label hanging off the same hub.
        g = Graph([0, 1, 1, 2], [(0, 1), (0, 2), (0, 3)])
        classes = nec_classes(g)
        as_sets = sorted(frozenset(c) for c in classes)
        assert frozenset({1, 2}) in as_sets
        assert frozenset({3}) in as_sets

    def test_nec_distinguishes_labels_and_anchors(self):
        g = Graph([0, 1, 1, 0], [(0, 1), (0, 2), (3, 2)])
        # Vertex 1 (leaf of 0) and nothing else shares (label, anchor).
        classes = {frozenset(c) for c in nec_classes(g)}
        assert frozenset({1}) in classes


class TestRandomOrderer:
    def test_seeded_reproducibility(self, instance):
        query, data, candidates, stats = instance
        a = RandomOrderer(seed=4).order(query, data, candidates, stats)
        b = RandomOrderer(seed=4).order(query, data, candidates, stats)
        assert a == b
        check_order(query, a)

    def test_different_seeds_vary(self, instance):
        query, data, candidates, stats = instance
        orders = {
            tuple(RandomOrderer(seed=s).order(query, data, candidates, stats))
            for s in range(10)
        }
        assert len(orders) > 1


def test_registry_names():
    assert set(ORDERERS) == {
        "qsi", "ri", "vf2pp", "gql", "veq", "random", "optimal",
    }
