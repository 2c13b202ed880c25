"""Tests for the brute-force optimal orderer (Fig. 6 machinery)."""

import numpy as np
import pytest

from repro.errors import FilterError
from repro.graphs import Graph, check_order, erdos_renyi, extract_query
from repro.matching import Enumerator, GQLFilter, MatchingContext, OptimalOrderer
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

    @pytest.mark.parametrize("match_limit", [None, 7])
    def test_bounded_sweep_equals_an_unbounded_one(self, instance, match_limit):
        # Each later permutation runs under the best count so far, which
        # can only stop runs that would have lost: the sweep picks the
        # order, and reports the count, that running every permutation
        # to the end and keeping the first minimum does — and that count
        # is a complete run's of the order returned.
        query, data, candidates = instance
        context = MatchingContext(query, data, candidates)
        seeds = [ORDERERS["ri"](), ORDERERS["gql"]()]
        optimal = OptimalOrderer(match_limit=match_limit, seed_orderers=seeds)
        order = optimal.order_context(context)
        orders = [seed.order_context(context) for seed in seeds]
        orders += list(connected_permutations(query))
        unbounded = Enumerator(match_limit=match_limit, time_limit=None)
        counts = [
            unbounded.run_context(context, phi).num_enumerations for phi in orders
        ]
        assert order == orders[counts.index(min(counts))]
        assert optimal.last_best_enum == min(counts)
        rerun = unbounded.run_context(context, order)
        assert not rerun.timed_out
        assert rerun.num_enumerations == optimal.last_best_enum

    def test_a_stopped_run_never_wins(self, instance):
        # A first budget at or above the optimum changes nothing; below
        # it, every run stops, none wins, and no count is reported.
        query, data, candidates = instance
        unbounded = OptimalOrderer(match_limit=None)
        order = unbounded.order(query, data, candidates)
        best = unbounded.last_best_enum
        at_best = OptimalOrderer(match_limit=None, enum_limit=best)
        assert at_best.order(query, data, candidates) == order
        assert at_best.last_best_enum == best
        below = OptimalOrderer(match_limit=None, enum_limit=best - 1)
        check_order(query, below.order(query, data, candidates))
        assert below.last_best_enum is None

    def test_requires_data_and_candidates(self, instance):
        query, *_ = instance
        with pytest.raises(FilterError):
            OptimalOrderer().order(query)
