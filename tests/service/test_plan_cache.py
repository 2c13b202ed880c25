"""Tests for the byte-budgeted LRU plan cache."""

import threading

import pytest

from repro.api import Matcher
from repro.graphs import erdos_renyi, extract_query
from repro.graphs.canonical import canonical_form, relabel_graph
from repro.service.cache import ENTRY_OVERHEAD_BYTES, PlanCache

import numpy as np


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(150, 450, 3, seed=13)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(5)
    return [extract_query(data, 4, rng) for _ in range(8)]


def make_plan(data, query):
    return Matcher(data).plan(query)


def plan_cached(matcher, query):
    """Plan ``query`` the way the service does: through its canonical form."""
    cform = canonical_form(query)
    return matcher.plan_fingerprinted(cform.graph, cform.fingerprint)


class TestCounters:
    def test_hit_miss_accounting(self, data, queries):
        cache = PlanCache(max_bytes=1 << 24)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        _, hit = plan_cached(matcher, queries[0])
        assert not hit
        assert cache.stats().misses == 1 and cache.stats().hits == 0
        plan_again, hit = plan_cached(matcher, queries[0])
        assert hit
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1 and stats.plans == 1
        assert stats.hit_rate == 0.5
        # The hit is literally the same frozen object: Phases (1)-(2)
        # were skipped, not replayed.
        assert plan_again is plan_cached(matcher, queries[0])[0]

    def test_relabeled_isomorphs_are_all_hits(self, data, queries):
        # The serving regime the cache exists for: the same queries
        # recur under other vertex numberings.  Canonicalization maps
        # each isomorph to the key and query its original was cached
        # under, so waves of isomorphs plan nothing new.
        distinct = list({canonical_form(q).fingerprint: q for q in queries}.values())
        cache = PlanCache(max_bytes=1 << 24)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        cold = [plan_cached(matcher, q) for q in distinct]
        assert not any(hit for _, hit in cold)
        rng = np.random.default_rng(11)
        waves = 3
        for _ in range(waves):
            for query, (plan, _) in zip(distinct, cold):
                isomorph = relabel_graph(query, rng.permutation(query.num_vertices))
                warm, hit = plan_cached(matcher, isomorph)
                assert hit and warm is plan
        stats = cache.stats()
        n = len(distinct)
        assert (stats.hits, stats.misses, stats.plans) == (waves * n, n, n)

    def test_exact_query_guard_rejects_key_collisions(self, data, queries):
        cache = PlanCache(max_bytes=1 << 24)
        plan = make_plan(data, queries[0])
        cache.put(("scope", "f", "o", "fp"), plan)
        # Same key, different query: the guard must miss, not serve a
        # wrong plan.
        assert cache.get(("scope", "f", "o", "fp"), queries[1]) is None
        assert cache.get(("scope", "f", "o", "fp"), queries[0]) is plan

    def test_eviction_by_byte_budget(self, data, queries):
        plans = [make_plan(data, q) for q in queries[:4]]
        cost = ENTRY_OVERHEAD_BYTES * 4  # generous per-entry floor
        budget = sum(
            ENTRY_OVERHEAD_BYTES
            + p.candidate_space_bytes
            + 8 * sum(p.candidate_counts)
            for p in plans[:2]
        )
        cache = PlanCache(max_bytes=budget + cost // 4)
        for i, plan in enumerate(plans):
            cache.put(("s", "f", "o", str(i)), plan)
        stats = cache.stats()
        assert stats.evictions >= 1
        assert stats.bytes <= cache.max_bytes
        # Least-recently-used entries went first.
        assert ("s", "f", "o", "0") not in cache
        assert ("s", "f", "o", str(len(plans) - 1)) in cache

    def test_oversized_plan_not_cached(self, data, queries):
        plan = make_plan(data, queries[0])
        cache = PlanCache(max_bytes=16)
        assert not cache.put(("s", "f", "o", "x"), plan)
        assert len(cache) == 0

    def test_lru_refresh_on_hit(self, data, queries):
        plans = [make_plan(data, q) for q in queries[:3]]
        costs = [
            ENTRY_OVERHEAD_BYTES
            + p.candidate_space_bytes
            + 8 * sum(p.candidate_counts)
            for p in plans
        ]
        cache = PlanCache(max_bytes=costs[0] + costs[1])
        cache.put(("s", "f", "o", "0"), plans[0])
        cache.put(("s", "f", "o", "1"), plans[1])
        cache.get(("s", "f", "o", "0"))  # refresh 0; 1 becomes LRU
        cache.put(("s", "f", "o", "2"), plans[2])
        assert ("s", "f", "o", "0") in cache or costs[2] > costs[1]
        assert ("s", "f", "o", "1") not in cache


class TestInvalidation:
    def test_invalidate_scope_and_clear(self, data, queries):
        cache = PlanCache(max_bytes=1 << 24)
        for i, q in enumerate(queries[:4]):
            scope = "a" if i % 2 == 0 else "b"
            cache.put((scope, "f", "o", str(i)), make_plan(data, q))
        assert cache.invalidate_scope("a") == 2
        assert len(cache) == 2
        assert cache.invalidate_scope("a") == 0
        assert cache.clear() == 2
        assert cache.stats().bytes == 0
        # Explicit invalidation is not an eviction.
        assert cache.stats().evictions == 0

    def test_invalidate_single_key(self, data, queries):
        cache = PlanCache(max_bytes=1 << 24)
        cache.put(("s", "f", "o", "k"), make_plan(data, queries[0]))
        assert cache.invalidate(("s", "f", "o", "k"))
        assert not cache.invalidate(("s", "f", "o", "k"))


class TestThreadSafety:
    def test_concurrent_put_get_invalidate(self, data, queries):
        cache = PlanCache(max_bytes=1 << 22)
        plans = [make_plan(data, q) for q in queries]
        errors = []

        def hammer(tid):
            try:
                for i in range(60):
                    key = ("s", "f", "o", str((tid + i) % len(plans)))
                    cache.put(key, plans[(tid + i) % len(plans)])
                    cache.get(key)
                    if i % 17 == 0:
                        cache.invalidate_scope("s")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.bytes >= 0 and stats.bytes <= cache.max_bytes


class TestMatcherIntegration:
    def test_shared_cache_scoped_by_component_names(self, data, queries):
        cache = PlanCache(max_bytes=1 << 24)
        ri = Matcher(data, orderer="ri", plan_cache=cache, cache_scope="d")
        qsi = Matcher(data, orderer="qsi", plan_cache=cache, cache_scope="d")
        plan_cached(ri, queries[0])
        plan_cached(qsi, queries[0])
        # Different orderers must not share entries.
        assert cache.stats().plans == 2
        assert cache.stats().hits == 0

    def test_equal_data_graphs_share_a_scope(self, queries):
        # Two matchers over equal (not identical) graphs that share a
        # cache and a scope share entries, and a plan cached by one
        # executes on the other: the context carries g1, which equals
        # m2's data graph.
        cache = PlanCache(max_bytes=1 << 24)
        g1 = erdos_renyi(150, 450, 3, seed=13)
        g2 = erdos_renyi(150, 450, 3, seed=13)
        m1 = Matcher(g1, plan_cache=cache, cache_scope="d", record_matches=True)
        m2 = Matcher(g2, plan_cache=cache, cache_scope="d", record_matches=True)
        plan_cached(m1, queries[0])
        plan, hit = plan_cached(m2, queries[0])
        assert hit and cache.stats().hits == 1
        cross = m2.execute(plan)
        same = m1.execute(m1.plan(plan.query))
        assert cross.enumeration.matches == same.enumeration.matches
        assert cross.num_enumerations == same.num_enumerations

    def test_cold_plan_bypasses_cache(self, data, queries):
        # ``plan`` is the cold pipeline: it never reads or fills the cache.
        cache = PlanCache(max_bytes=1 << 24)
        matcher = Matcher(data, orderer="random", plan_cache=cache, cache_scope="d")
        matcher.plan(queries[0])
        matcher.plan(queries[0])
        assert cache.stats().hits == 0 and cache.stats().misses == 0
        assert len(cache) == 0

    def test_a_cache_needs_a_scope(self, data):
        with pytest.raises(ValueError, match="cache_scope"):
            Matcher(data, plan_cache=PlanCache(max_bytes=1 << 24))

    def test_fingerprint_seeded_on_cached_plans(self, data, queries):
        cache = PlanCache(max_bytes=1 << 24)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        plan, _ = plan_cached(matcher, queries[0])
        # The lazy fingerprint was seeded during caching: reading it
        # must not recompute (same object in the instance dict).
        assert "fingerprint" in plan.__dict__
        from repro.graphs.canonical import canonical_fingerprint

        assert plan.fingerprint == canonical_fingerprint(queries[0])
