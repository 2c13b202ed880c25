"""Process-pool tests: bit-identity across the process boundary, and
the failure envelope contract (a dead or misbehaving worker surfaces a
structured ``ServiceError``, never a hung future).

One module-scoped pool amortizes the spawn cost; the chaos tests run
after the identity tests and deliberately burn respawn budget, which
the default limit comfortably covers.
"""

import numpy as np
import pytest

from repro.graphs import erdos_renyi, extract_query
from repro.procpool import ProcessPool, catalog_spec
from repro.procpool.worker import _build_service
from repro.service import MatchRequest, MatchService, PlanCache
from repro.service.cache import DEFAULT_CACHE_BYTES
from repro.service.catalog import CatalogEntry, DatasetCatalog
from repro.service.requests import ServiceError


def tiny_spec(data) -> dict:
    return catalog_spec(DatasetCatalog({"tiny": data}, plan_cache=PlanCache()))


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(120, 360, 3, seed=7)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(3)
    return [extract_query(data, 4, rng) for _ in range(4)]


@pytest.fixture(scope="module")
def expected(data, queries):
    service = MatchService(catalog={"tiny": data})
    try:
        return [
            service.submit(MatchRequest("tiny", q, record_matches=True))
            for q in queries
        ]
    finally:
        service.close()


@pytest.fixture(scope="module")
def pool(data):
    with ProcessPool(tiny_spec(data), workers=2) as pool:
        yield pool


class TestBitIdentity:
    def test_results_match_direct_execution(self, pool, queries, expected):
        futures = [
            pool.submit(MatchRequest("tiny", q, record_matches=True))
            for q in queries
        ]
        for future, want in zip(futures, expected):
            got = future.result(timeout=120)
            assert got.ok, got.error
            assert got.num_matches == want.num_matches
            assert got.num_enumerations == want.num_enumerations
            assert list(got.order) == list(want.order)
            assert list(got.matches) == list(want.matches)

    def test_validation_errors_cross_the_boundary(self, pool, queries):
        # Direct-path semantics: an unknown dataset *raises* a
        # validation ServiceError; the pool re-raises the same class
        # and code rather than inventing an envelope of its own.
        with pytest.raises(ServiceError) as err:
            pool.execute(MatchRequest("missing", queries[0]))
        assert err.value.code == "validation"


class TestFailureEnvelopes:
    def test_worker_killed_mid_request_is_internal_not_a_hang(
        self, pool, queries
    ):
        # The worker reads the task, then dies (os._exit) while owning
        # it: the caller must see the structured internal envelope.
        future = pool.submit(MatchRequest("tiny", queries[0]), _chaos="exit")
        with pytest.raises(ServiceError) as err:
            future.result(timeout=120)
        assert err.value.code == "internal"

    def test_unpicklable_result_is_internal_not_a_hang(self, pool, queries):
        future = pool.submit(
            MatchRequest("tiny", queries[0]), _chaos="unpicklable"
        )
        with pytest.raises(ServiceError) as err:
            future.result(timeout=120)
        assert err.value.code == "internal"

    def test_pool_serves_again_after_respawn(self, pool, queries, expected):
        response = pool.execute(
            MatchRequest("tiny", queries[0], record_matches=True)
        )
        assert response.ok
        assert response.num_matches == expected[0].num_matches
        assert list(response.matches) == list(expected[0].matches)

    def test_health_reflects_the_chaos(self, pool):
        health = pool.health()
        assert health["workers"] == 2
        assert health["alive"] == 2  # the dead worker was respawned
        assert health["respawns"] >= 1
        assert health["served"] >= 1
        assert health["down"] is False


class TestShutdown:
    def test_closed_pool_rejects_submissions(self, data, queries):
        pool = ProcessPool(tiny_spec(data), workers=1)
        pool.shutdown()
        with pytest.raises(ServiceError) as err:
            pool.submit(MatchRequest("tiny", queries[0]))
        assert err.value.code == "rejected"

    def test_shutdown_is_idempotent(self, data):
        pool = ProcessPool(tiny_spec(data), workers=1)
        pool.shutdown()
        pool.shutdown()


class TestSpec:
    def test_in_memory_model_is_refused(self, data):
        entry = CatalogEntry(name="tiny", data=data, model=object())
        with pytest.raises(ServiceError) as err:
            catalog_spec(DatasetCatalog({"tiny": entry}, plan_cache=PlanCache()))
        assert err.value.code == "validation"

    def test_workers_get_the_catalog_cache_budget(self, data):
        # A worker's plan cache has the service's byte budget, not the
        # default; the service is built in-process, no worker spawned.
        budget = DEFAULT_CACHE_BYTES // 64
        catalog = DatasetCatalog({"tiny": data}, plan_cache=PlanCache(budget))
        service = _build_service(catalog_spec(catalog))
        try:
            assert service.plan_cache.max_bytes == budget
        finally:
            service.close()
