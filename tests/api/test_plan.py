"""Tests for QueryPlan: inspection, serialization, detached execution."""

import json
import math

import numpy as np
import pytest

from repro import Matcher, QueryPlan
from repro.errors import ReproError
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
        assert plan.attached and plan.context is not None

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


class TestSerialization:
    def test_round_trip_preserves_everything_but_the_context(
        self, instance, matcher
    ):
        _, _, queries = instance
        plan = matcher.plan(queries[0])
        payload = json.loads(json.dumps(plan.to_dict()))  # through real JSON
        restored = QueryPlan.from_dict(payload)
        assert restored.query == plan.query
        assert restored.order == plan.order
        assert restored.candidate_counts == plan.candidate_counts
        assert restored.filter_name == plan.filter_name
        assert restored.orderer_name == plan.orderer_name
        assert restored.enumerator_name == plan.enumerator_name
        assert restored.filter_time == plan.filter_time
        assert restored.estimated_cost == plan.estimated_cost
        assert restored.candidate_space_bytes == plan.candidate_space_bytes
        assert restored.context is None and not restored.attached

    def test_detached_plan_executes_bit_identically(self, instance, matcher):
        _, _, queries = instance
        plan = matcher.plan(queries[3])
        restored = QueryPlan.from_dict(plan.to_dict())
        attached = matcher.execute(plan)
        detached = matcher.execute(restored)
        assert detached.enumeration.matches == attached.enumeration.matches
        assert detached.num_enumerations == attached.num_enumerations

    def test_v2_payload_with_partition_blocks_loads_and_executes(
        self, instance, matcher
    ):
        # What a parent-commit matcher built with shards=2 persisted:
        # the blocks are ignored and the plan runs on the global context.
        _, _, queries = instance
        plan = matcher.plan(queries[3])
        payload = {
            **plan.to_dict(),
            "shard_layout": [2, "range"],
            "shards": [
                {
                    "shard_id": 0, "owned": [0, 30], "num_vertices": 54,
                    "halo": 27, "root_candidates": 8,
                    "candidate_counts": [27, 8, 13, 27, 14],
                    "filter_time": 0.0009, "candidate_space_bytes": 3656,
                },
            ],
        }
        assert payload["version"] == 2
        restored = QueryPlan.from_json(json.dumps(payload))
        assert restored == plan
        assert "shards" not in restored.to_dict()
        attached = matcher.execute(plan)
        detached = matcher.execute(restored)
        assert detached.enumeration.matches == attached.enumeration.matches
        assert detached.num_enumerations == attached.num_enumerations

    def test_detached_plan_needs_the_recorded_filter(self, instance, matcher):
        from repro.errors import ModelError

        data, stats, queries = instance
        restored = QueryPlan.from_dict(matcher.plan(queries[0]).to_dict())
        other = Matcher(data, filter="ldf", orderer="ri", stats=stats)
        with pytest.raises(ModelError, match="gql"):
            other.execute(restored)

    def test_version_and_malformed_payloads_rejected(self, instance, matcher):
        _, _, queries = instance
        payload = matcher.plan(queries[0]).to_dict()
        with pytest.raises(ReproError, match="version"):
            QueryPlan.from_dict({**payload, "version": 999})
        with pytest.raises(ReproError, match="malformed"):
            QueryPlan.from_dict({"version": 1})

    def test_to_dict_is_json_safe_under_numpy_scalars(self, instance, matcher):
        # A plan deliberately rebuilt with numpy scalar fields — the
        # shapes that leak out of array code — must still serialize:
        # to_dict owns the coercion to native types.
        import dataclasses

        _, _, queries = instance
        plan = matcher.plan(queries[1])
        poisoned = dataclasses.replace(
            plan,
            order=tuple(np.int64(u) for u in plan.order),
            candidate_counts=tuple(np.int32(c) for c in plan.candidate_counts),
            filter_time=np.float64(plan.filter_time),
            order_time=np.float32(plan.order_time),
            build_time=np.float64(plan.build_time),
            estimated_cost=np.float64(plan.estimated_cost),
            candidate_space_bytes=np.int64(plan.candidate_space_bytes),
        )
        payload = json.loads(json.dumps(poisoned.to_dict()))  # real JSON
        restored = QueryPlan.from_dict(payload)
        assert restored.order == plan.order
        assert restored.candidate_counts == plan.candidate_counts
        for value in payload.values():
            assert not type(value).__module__.startswith("numpy")

    def test_fingerprint_travels_and_matches_canonical_hash(
        self, instance, matcher
    ):
        from repro.graphs.canonical import canonical_fingerprint

        _, _, queries = instance
        plan = matcher.plan(queries[2])
        assert plan.fingerprint == canonical_fingerprint(queries[2])
        payload = plan.to_dict()
        assert payload["fingerprint"] == plan.fingerprint
        # The recorded fingerprint is seeded on restore (not recomputed).
        restored = QueryPlan.from_dict(payload)
        assert restored.__dict__.get("fingerprint") == plan.fingerprint
        assert restored.fingerprint == plan.fingerprint

    def test_uncanonicalizable_plans_still_serialize(self, instance):
        # Plans for queries the canonicalizer refuses (too large) must
        # keep serializing — fingerprint is simply omitted.
        from repro.graphs import erdos_renyi
        from repro.graphs.canonical import MAX_CANONICAL_VERTICES

        data, _, _ = instance
        big = erdos_renyi(MAX_CANONICAL_VERTICES + 8, 900, 3, seed=9)
        matcher = Matcher(data, filter="ldf")
        plan = matcher.plan(big)
        payload = json.loads(json.dumps(plan.to_dict()))
        assert "fingerprint" not in payload
        restored = QueryPlan.from_dict(payload)
        assert restored.order == plan.order
