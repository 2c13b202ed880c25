"""Tests for QueryPlan: inspection, order substitution, the candidate space."""

import math

import numpy as np
import pytest

from repro import Matcher
from repro.graphs import Graph, GraphStats, erdos_renyi, extract_query


@pytest.fixture(scope="module")
def instance():
    data = erdos_renyi(60, 180, 3, seed=5)
    stats = GraphStats(data)
    queries = [extract_query(data, 5, np.random.default_rng(s)) for s in range(4)]
    return data, stats, queries


@pytest.fixture(scope="module")
def matcher(instance):
    data, stats, _ = instance
    return Matcher(data, filter="gql", orderer="ri", match_limit=None,
                   record_matches=True, stats=stats)


class TestPlanContents:
    def test_plan_records_components_order_and_counts(self, instance, matcher):
        _, _, queries = instance
        plan = matcher.plan(queries[0])
        assert plan.filter_name == "gql"
        assert plan.orderer_name == "ri"
        assert plan.enumerator_name == "iterative"
        assert sorted(plan.order) == list(range(queries[0].num_vertices))
        assert len(plan.candidate_counts) == queries[0].num_vertices
        assert plan.context.query is queries[0]

    def test_plan_measurements_are_sane(self, instance, matcher):
        _, _, queries = instance
        plan = matcher.plan(queries[0])
        assert plan.filter_time >= 0 and plan.order_time >= 0
        assert plan.build_time >= plan.filter_time + plan.order_time
        assert math.isfinite(plan.estimated_cost) and plan.estimated_cost > 0
        # The iterative engine consumes the per-edge index, so the plan
        # must report its (positive) footprint, matching the context's.
        assert plan.candidate_space_bytes > 0
        assert plan.candidate_space_bytes == plan.context.space.memory_bytes()

    def test_unmatchable_plan(self, instance, matcher):
        data, _, _ = instance
        impossible = Graph([max(data.distinct_labels()) + 1], [])
        plan = matcher.plan(impossible)
        assert not plan.matchable
        assert plan.candidate_counts == (0,)
        assert plan.order == (0,)
        assert plan.candidate_space_bytes == 0
        result = matcher.execute(plan)
        assert result.num_matches == 0 and result.num_enumerations == 0

    def test_with_order_substitutes_and_shares_context(self, instance, matcher):
        _, _, queries = instance
        plan = matcher.plan(queries[1])
        reversed_order = tuple(reversed(plan.order))
        manual = plan.with_order(reversed_order)
        assert manual.order == reversed_order
        assert manual.orderer_name == "manual"
        assert manual.context is plan.context
        assert math.isnan(manual.estimated_cost)
        estimated = plan.with_order(reversed_order, estimate=True)
        assert math.isfinite(estimated.estimated_cost)

    def test_release_space_rebuilds_lazily(self, instance, matcher):
        _, _, queries = instance
        plan = matcher.plan(queries[2])
        assert plan.context.has_space
        plan.release_space()
        assert not plan.context.has_space
        result = matcher.execute(plan)  # space rebuilds on demand
        assert result.num_enumerations > 0

    def test_fingerprint_matches_canonical_hash(self, instance, matcher):
        from repro.graphs.canonical import canonical_fingerprint

        _, _, queries = instance
        plan = matcher.plan(queries[2])
        assert plan.fingerprint == canonical_fingerprint(queries[2])
