"""Tests for the persistent plan store and the cache's store tier."""

import sqlite3

import numpy as np
import pytest

from repro.api import Matcher
from repro.graphs import erdos_renyi, extract_query
from repro.server.store import STORE_SCHEMA_VERSION, PlanStore
from repro.service.cache import PlanCache

KEY = ("scope", "gql", "ri", "fp:abc")


@pytest.fixture()
def store(tmp_path):
    return PlanStore(tmp_path / "plans.sqlite")


class TestPlanStore:
    def test_roundtrip(self, store):
        payload = {"version": 2, "order": [2, 0, 1], "nested": {"a": [1]}}
        store.put(KEY, payload)
        assert store.get(KEY) == payload
        assert KEY in store and len(store) == 1

    def test_missing_key_is_a_miss(self, store):
        assert store.get(KEY) is None
        assert store.stats().misses == 1

    def test_replace_keeps_one_row(self, store):
        store.put(KEY, {"version": 1})
        store.put(KEY, {"version": 2})
        assert len(store) == 1
        assert store.get(KEY)["version"] == 2

    def test_key_must_be_a_four_tuple(self, store):
        with pytest.raises(ValueError):
            store.put(("scope", "layout", "gql", "ri", "fp"), {})
        with pytest.raises(ValueError):
            store.get(("a",))

    def test_survives_reopening(self, tmp_path):
        path = tmp_path / "plans.sqlite"
        PlanStore(path).put(KEY, {"version": 3})
        reopened = PlanStore(path)
        assert reopened.get(KEY) == {"version": 3}

    def test_file_from_the_previous_table_layout_is_recreated(self, tmp_path):
        # The parent commit's DDL (store schema 1, five key columns),
        # with one row in it: opening must not raise, the row is gone
        # (it was a miss by the version contract anyway), and the
        # recreated table round-trips.
        path = tmp_path / "plans.sqlite"
        old = sqlite3.connect(path)
        old.execute(
            """
            CREATE TABLE IF NOT EXISTS plans (
                scope        TEXT NOT NULL,
                shard_layout TEXT NOT NULL,
                filter       TEXT NOT NULL,
                orderer      TEXT NOT NULL,
                fingerprint  TEXT NOT NULL,
                store_version INTEGER NOT NULL,
                plan_version  INTEGER NOT NULL,
                payload      TEXT NOT NULL,
                created_s    REAL NOT NULL,
                PRIMARY KEY (scope, shard_layout, filter, orderer, fingerprint)
            )
            """
        )
        old.execute(
            "INSERT INTO plans VALUES (?,?,?,?,?,?,?,?,?)",
            ("scope", "unsharded", "gql", "ri", "fp:abc", 1, 2, "{}", 0.0),
        )
        old.commit()
        old.close()
        store = PlanStore(path)
        assert len(store) == 0
        assert store.get(KEY) is None
        store.put(KEY, {"version": 2})
        assert store.get(KEY) == {"version": 2}
        store.close()
        assert PlanStore(path).get(KEY) == {"version": 2}  # not dropped twice

    def test_wrong_store_version_row_is_dropped_as_miss(self, store):
        store.put(KEY, {"version": 1})
        with store._lock:
            store._conn.execute(
                "UPDATE plans SET store_version=?",
                (STORE_SCHEMA_VERSION + 1,),
            )
            store._conn.commit()
        assert store.get(KEY) is None
        assert len(store) == 0  # quietly deleted
        assert store.stats().corrupt_dropped == 1

    def test_corrupt_payload_row_is_dropped_as_miss(self, store):
        store.put(KEY, {"version": 1})
        with store._lock:
            store._conn.execute("UPDATE plans SET payload='{truncated'")
            store._conn.commit()
        assert store.get(KEY) is None
        assert len(store) == 0
        assert store.stats().corrupt_dropped == 1

    def test_non_object_payload_row_is_dropped_as_miss(self, store):
        store.put(KEY, {"version": 1})
        with store._lock:
            store._conn.execute("UPDATE plans SET payload='[1, 2]'")
            store._conn.commit()
        assert store.get(KEY) is None

    def test_drop_and_scope_invalidation(self, store):
        other = ("other",) + KEY[1:]
        store.put(KEY, {"version": 1})
        store.put(other, {"version": 1})
        assert store.drop(KEY) and not store.drop(KEY)
        assert store.invalidate_scope("other") == 1
        assert len(store) == 0

    def test_clear(self, store):
        store.put(KEY, {"version": 1})
        assert store.clear() == 1 and len(store) == 0

    def test_counters(self, store):
        store.put(KEY, {"version": 1})
        store.get(KEY)
        store.get(("nope",) + KEY[1:])
        stats = store.stats()
        assert (stats.writes, stats.hits, stats.misses, stats.rows) == (1, 1, 1, 1)


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(150, 450, 3, seed=13)


@pytest.fixture(scope="module")
def query(data):
    return extract_query(data, 4, np.random.default_rng(5))


class TestCacheStoreTier:
    def test_put_writes_through(self, data, query, store):
        cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        matcher.plan(query)
        assert len(store) == 1
        assert store.stats().writes == 1

    def test_memory_miss_falls_back_to_store(self, data, query, store):
        warmer = Matcher(
            data, plan_cache=PlanCache(max_bytes=1 << 24, store=store),
            cache_scope="d",
        )
        plan = warmer.plan(query)
        # A fresh memory tier over the same store: the lookup must hit
        # the durable tier and count it.
        cold_cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cold_cache, cache_scope="d")
        warm, hit = matcher.plan_fingerprinted(query, plan.fingerprint)
        assert hit
        stats = cold_cache.stats()
        assert stats.hits == 1 and stats.store_hits == 1
        assert warm.order == plan.order
        assert warm.context is not None  # re-attached, executable

    def test_store_fallback_results_are_bit_identical(self, data, query, store):
        warmer = Matcher(
            data, plan_cache=PlanCache(max_bytes=1 << 24, store=store),
            cache_scope="d", record_matches=True,
        )
        cold_plan = warmer.plan(query)
        cold = warmer.execute(cold_plan)
        matcher = Matcher(
            data, plan_cache=PlanCache(max_bytes=1 << 24, store=store),
            cache_scope="d", record_matches=True,
        )
        warm_plan, hit = matcher.plan_fingerprinted(query, cold_plan.fingerprint)
        assert hit
        warm = matcher.execute(warm_plan)
        assert warm.enumeration.matches == cold.enumeration.matches
        assert warm.num_enumerations == cold.num_enumerations

    def test_corrupted_store_row_degrades_to_cold_planning(
        self, data, query, store
    ):
        warmer = Matcher(
            data, plan_cache=PlanCache(max_bytes=1 << 24, store=store),
            cache_scope="d",
        )
        plan = warmer.plan(query)
        with store._lock:
            store._conn.execute("UPDATE plans SET payload='{\"bad\": 1}'")
            store._conn.commit()
        cold_cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cold_cache, cache_scope="d")
        replanned, hit = matcher.plan_fingerprinted(query, plan.fingerprint)
        assert not hit  # unreadable row served as a miss...
        assert replanned.order == plan.order  # ...and planning still works

    def test_invalidation_voids_both_tiers(self, data, query, store):
        cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        matcher.plan(query)
        assert cache.invalidate_scope("d") == 1
        assert len(store) == 0 and len(cache) == 0

    def test_clear_voids_both_tiers(self, data, query, store):
        cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        matcher.plan(query)
        assert cache.clear() == 1
        assert len(store) == 0

    def test_store_errors_never_break_serving(self, data, query, store):
        cache = PlanCache(max_bytes=1 << 24, store=store)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        store.close()  # every store call now raises sqlite3.ProgrammingError
        with pytest.raises(sqlite3.Error):
            store.get(KEY)
        plan = matcher.plan(query)  # durability is best-effort
        assert plan.matchable is not None

    def test_attach_store_after_construction(self, data, query, store):
        cache = PlanCache(max_bytes=1 << 24)
        matcher = Matcher(data, plan_cache=cache, cache_scope="d")
        cache.attach_store(store)
        matcher.plan(query)
        assert len(store) == 1
