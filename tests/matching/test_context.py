"""MatchingContext tests: single Phase (1) space build, facade billing,
and oracle-vs-iterative equivalence on the shared-context path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recursive_oracle import RecursiveOracle

from repro import Matcher
from repro.errors import FilterError
from repro.matching import (
    CandidateSets,
    CandidateSpace,
    Enumerator,
    GQLFilter,
    LDFFilter,
    MatchingContext,
    RIOrderer,
)
from repro.graphs import Graph, erdos_renyi, extract_query


def _instance(seed: int, query_size: int = 5):
    rng = np.random.default_rng(seed)
    data = erdos_renyi(40, 110, 2, seed=seed)
    query = extract_query(data, query_size, rng)
    candidates = GQLFilter().filter(query, data)
    return query, data, candidates


class TestMatchingContext:
    def test_space_is_lazy_and_cached(self):
        query, data, candidates = _instance(0)
        context = MatchingContext(query, data, candidates)
        assert not context.has_space
        space = context.space
        assert context.has_space
        assert context.space is space
        assert context.ensure_space() is space

    def test_release_space_drops_and_rebuilds(self):
        query, data, candidates = _instance(7)
        context = MatchingContext(query, data, candidates)
        first = context.space
        context.release_space()
        assert not context.has_space
        rebuilt = context.space
        assert rebuilt is not first
        for u, u_prime in query.edges():
            for v in candidates.array(u).tolist():
                assert (
                    rebuilt.edge_candidates_array(u, u_prime, v).tolist()
                    == first.edge_candidates_array(u, u_prime, v).tolist()
                )

    def test_arity_mismatch_rejected(self):
        query, data, _ = _instance(1)
        with pytest.raises(FilterError):
            MatchingContext(query, data, CandidateSets([[0]]))

    def test_matcher_builds_space_exactly_once(self, monkeypatch):
        query, data, _ = _instance(2)
        builds = []
        original = CandidateSpace.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CandidateSpace, "__init__", counting_init)
        matcher = Matcher(data, filter="gql", orderer="ri", match_limit=None)
        plan = matcher.plan(query)
        assert len(builds) == 1  # built in Phase (1) ...
        result = matcher.execute(plan)
        assert result.solved
        assert matcher.execute(plan).num_matches == result.num_matches
        assert len(builds) == 1  # ... and shared by every execution

    def test_space_build_billed_to_filter_phase(self):
        # plan() pre-builds the space before the Phase (1) timestamp,
        # so the enumerator must see an already-built context.
        query, data, _ = _instance(4)
        seen = {}

        class SpyEnumerator(Enumerator):
            def run_context(self, context, order):
                seen["has_space"] = context.has_space
                return super().run_context(context, order)

        matcher = Matcher(
            data, filter=GQLFilter(), orderer=RIOrderer(), enumerator=SpyEnumerator()
        )
        plan = matcher.plan(query)
        assert plan.context.has_space and plan.candidate_space_bytes > 0
        result = matcher.execute(plan)
        assert seen["has_space"] is True
        assert result.filter_time == plan.filter_time > 0

    def test_empty_candidates_short_circuit_builds_no_space(self, monkeypatch):
        _, data, _ = _instance(5)
        impossible = Graph([123, 123], [(0, 1)])
        builds = []
        original = CandidateSpace.__init__

        def counting_init(self, *args, **kwargs):
            builds.append(1)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CandidateSpace, "__init__", counting_init)
        result = Matcher(data, filter=LDFFilter(), orderer=RIOrderer()).match(
            impossible
        )
        assert result.num_matches == 0
        assert builds == []


class TestEngineEquivalenceOnContext:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), query_size=st.integers(2, 6))
    def test_oracle_vs_iterative_bit_identical(self, seed, query_size):
        query, data, candidates = _instance(seed % 97, query_size)
        if candidates.has_empty():
            return
        order = RIOrderer().order(query, data, candidates)
        context = MatchingContext(query, data, candidates)
        iterative = Enumerator(
            match_limit=None, record_matches=True
        ).run_context(context, order)
        oracle = RecursiveOracle(
            match_limit=None, record_matches=True
        ).run_context(context, order)
        assert iterative.num_matches == oracle.num_matches
        assert iterative.num_enumerations == oracle.num_enumerations
        assert iterative.matches == oracle.matches

    def test_shared_context_matches_one_shot_run(self):
        query, data, candidates = _instance(12)
        order = RIOrderer().order(query, data, candidates)
        context = MatchingContext(query, data, candidates)
        enumerator = Enumerator(match_limit=None, record_matches=True)
        shared = enumerator.run_context(context, order)
        one_shot = enumerator.run(query, data, candidates, order)
        assert shared.matches == one_shot.matches
        assert shared.num_enumerations == one_shot.num_enumerations


class TestCandidateSetsMemory:
    def test_memory_bytes_counts_lazy_set_views(self):
        _, _, candidates = _instance(8)
        base = candidates.memory_bytes()
        assert base == sum(
            candidates.array(u).nbytes
            for u in range(candidates.num_query_vertices)
        )
        for u in range(candidates.num_query_vertices):
            candidates.get(u)
        assert candidates.memory_bytes() > base
