"""Tests for the brute-force optimal orderer (Fig. 6 machinery)."""

import numpy as np
import pytest

from repro.errors import FilterError
from repro.graphs import Graph, check_order, erdos_renyi, extract_query
from repro.matching import Enumerator, GQLFilter, OptimalOrderer
from repro.matching.ordering import ORDERERS, connected_permutations


class TestConnectedPermutations:
    def test_path_graph_count(self):
        # P3 (0-1-2): connected permutations = 4:
        # [0,1,2], [1,0,2], [1,2,0], [2,1,0]
        path = Graph([0, 0, 0], [(0, 1), (1, 2)])
        perms = list(connected_permutations(path))
        assert len(perms) == 4
        assert [0, 1, 2] in perms and [2, 1, 0] in perms
        assert [0, 2, 1] not in perms

    def test_triangle_all_permutations_connected(self):
        tri = Graph([0, 0, 0], [(0, 1), (1, 2), (0, 2)])
        assert len(list(connected_permutations(tri))) == 6

    def test_all_results_are_valid_orders(self):
        star = Graph([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        perms = list(connected_permutations(star))
        for perm in perms:
            check_order(star, perm)
        # Star: first vertex hub -> 3! orders; first vertex leaf -> hub second
        # -> 2! orders each: 6 + 3*2 = 12.
        assert len(perms) == 12

    def test_empty_graph(self):
        assert list(connected_permutations(Graph([], []))) == [[]]


class TestOptimalOrderer:
    @pytest.fixture(scope="class")
    def instance(self):
        data = erdos_renyi(40, 100, 2, seed=23)
        query = extract_query(data, 5, np.random.default_rng(4))
        candidates = GQLFilter().filter(query, data)
        return query, data, candidates

    def test_optimal_not_worse_than_heuristics(self, instance):
        query, data, candidates = instance
        optimal = OptimalOrderer(match_limit=None)
        best = optimal.order(query, data, candidates)
        check_order(query, best)
        enumerator = Enumerator(match_limit=None)
        best_enum = enumerator.run(query, data, candidates, best).num_enumerations
        assert best_enum == optimal.last_best_enum
        for name in ("ri", "gql", "veq", "qsi", "vf2pp"):
            orderer = ORDERERS[name]()
            order = orderer.order(query, data, candidates)
            other = enumerator.run(query, data, candidates, order).num_enumerations
            assert best_enum <= other

    def test_permutation_cap_respected(self, instance):
        query, data, candidates = instance
        capped = OptimalOrderer(match_limit=None, max_permutations=3)
        order = capped.order(query, data, candidates)
        check_order(query, order)
        assert capped.last_best_enum is not None

    def test_requires_data_and_candidates(self, instance):
        query, *_ = instance
        with pytest.raises(FilterError):
            OptimalOrderer().order(query)
