"""Tests for MatchService: cache-hit bit-identity, concurrency, stats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Matcher
from repro.errors import RegistryError, ReproError
from repro.graphs import Graph, erdos_renyi, extract_query, relabel_graph
from repro.service import (
    UNSET,
    MatchRequest,
    MatchResponse,
    MatchService,
)


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(200, 700, 3, seed=7)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(0)
    return [extract_query(data, 5, rng) for _ in range(5)]


@pytest.fixture()
def service(data):
    return MatchService(catalog={"tiny": data})


relabel = relabel_graph


def outcome(response: MatchResponse):
    return (
        response.matches,
        response.order,
        response.num_matches,
        response.num_enumerations,
        response.timed_out,
        response.limit_reached,
    )


class TestSubmit:
    def test_matches_agree_with_direct_matcher(self, data, service, queries):
        direct = Matcher(data, record_matches=True)
        for query in queries:
            expected = direct.match(query)
            response = service.submit(
                MatchRequest("tiny", query, record_matches=True)
            )
            assert response.ok and expected.enumeration.complete
            # The service plans the canonical query, so the *sequence*
            # may differ from the direct matcher's; the embedding set —
            # a property of the instance, not the order — must agree.
            assert set(response.matches) == set(expected.enumeration.matches)
            assert response.num_matches == expected.num_matches

    def test_cold_then_warm_hits_cache(self, service, queries):
        cold = service.submit(MatchRequest("tiny", queries[0]))
        warm = service.submit(MatchRequest("tiny", queries[0]))
        assert not cold.cache_hit and warm.cache_hit
        assert outcome(warm) == outcome(cold)
        assert warm.fingerprint == cold.fingerprint

    def test_unknown_dataset_raises_registry_style(self, service, queries):
        with pytest.raises(RegistryError, match="valid choices: tiny"):
            service.submit(MatchRequest("nope", queries[0]))

    def test_per_request_limits(self, service, queries):
        capped = service.submit(
            MatchRequest("tiny", queries[0], match_limit=2, record_matches=True)
        )
        assert capped.num_matches <= 2
        assert capped.limit_reached or capped.num_matches < 2
        unlimited = service.submit(MatchRequest("tiny", queries[0], match_limit=None))
        assert not unlimited.limit_reached

    def test_per_request_orderer_override(self, data, service, queries):
        default = service.submit(MatchRequest("tiny", queries[1]))
        qsi = service.submit(MatchRequest("tiny", queries[1], orderer="qsi"))
        assert qsi.ok and default.ok
        assert qsi.num_matches == default.num_matches
        # Both plans live in the cache under distinct orderer keys.
        repeat = service.submit(MatchRequest("tiny", queries[1], orderer="qsi"))
        assert repeat.cache_hit

    def test_canonicalization_budget_fallback_serves_uncached(
        self, data, service, queries, monkeypatch
    ):
        # A query the canonicalizer gives up on (budget exhausted) is
        # served correctly, just without caching: empty fingerprint, no
        # cache entry, matches identical to a direct matcher run.
        import repro.graphs.canonical as canonical_module

        monkeypatch.setattr(canonical_module, "CANONICAL_SEARCH_BUDGET", 3)
        # The artificially failed query lands in the module's negative
        # cache; clear it on exit so later tests canonicalize normally.
        monkeypatch.setattr(canonical_module, "_uncanonicalizable_graphs", {})
        monkeypatch.setattr(canonical_module, "_uncanonicalizable_wl", set())
        response = service.submit(
            MatchRequest("tiny", queries[0], record_matches=True)
        )
        assert response.ok and not response.cache_hit
        assert response.fingerprint == ""
        assert service.plan_cache.stats().plans == 0
        direct = Matcher(data, record_matches=True).match(queries[0])
        assert set(response.matches) == set(direct.enumeration.matches)
        # Repeats skip the burned search via the negative cache.
        assert queries[0] in canonical_module._uncanonicalizable_graphs

    def test_unmatchable_query_served(self, data, service):
        # A label absent from the data graph: empty candidates.
        bad = Graph([max(data.labels.tolist()) + 5, 0], [(0, 1)])
        response = service.submit(MatchRequest("tiny", bad, record_matches=True))
        assert response.ok and response.num_matches == 0
        assert response.matches == ()


class TestCacheHitBitIdentity:
    """Acceptance: warm plans are bit-identical to cold planning.

    Property test over generated query isomorphs — the service
    canonicalizes at the boundary, so a query primed under one labeling
    must serve every relabeling with identical match sequences and
    ``#enum``.
    """

    @given(st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_warm_equals_cold_over_isomorphs(self, data, queries, seed):
        rng = np.random.default_rng(seed)
        query = queries[int(rng.integers(len(queries)))]
        iso = relabel(query, rng.permutation(query.num_vertices).tolist())

        cold_service = MatchService(catalog={"tiny": data})
        cold = cold_service.submit(MatchRequest("tiny", iso, record_matches=True))
        assert not cold.cache_hit

        warm_service = MatchService(catalog={"tiny": data})
        primed = warm_service.submit(
            MatchRequest("tiny", query, record_matches=True)
        )
        warm = warm_service.submit(MatchRequest("tiny", iso, record_matches=True))
        assert warm.cache_hit
        assert outcome(warm) == outcome(cold)
        assert warm.fingerprint == cold.fingerprint == primed.fingerprint
        # #enum is an isomorphism-class invariant under canonicalization.
        assert warm.num_enumerations == primed.num_enumerations


class TestSubmitMany:
    def test_parallel_bit_identical_to_serial(self, data, queries):
        service = MatchService(catalog={"tiny": data})
        requests = [
            MatchRequest("tiny", q, record_matches=True) for q in queries
        ] * 3
        serial = [service.submit(r) for r in requests]
        parallel = service.submit_many(requests, max_workers=6)
        assert [outcome(r) for r in parallel] == [outcome(r) for r in serial]

    def test_capture_mode_isolates_failures(self, service, queries):
        requests = [
            MatchRequest("tiny", queries[0]),
            MatchRequest("missing", queries[0]),
            MatchRequest("tiny", queries[1]),
        ]
        responses = service.submit_many(requests)
        assert [r.ok for r in responses] == [True, False, True]
        assert "missing" in responses[1].error
        assert service.stats().errors == 1

    def test_empty_batch(self, service):
        assert service.submit_many([]) == []

    def test_fan_out_is_set_per_call_not_per_service(self, data):
        # The fan-out width is a ``submit_many`` argument only; the
        # constructor no longer takes a default for it.
        with pytest.raises(TypeError, match="max_workers"):
            MatchService(catalog={"tiny": data}, max_workers=4)


class TestStatsAndInvalidation:
    def test_stats_snapshot(self, data, queries):
        service = MatchService(catalog={"tiny": data})
        for _ in range(2):
            for q in queries[:3]:
                service.submit(MatchRequest("tiny", q))
        stats = service.stats()
        assert stats.requests == 6
        assert stats.cache.hits == 3 and stats.cache.misses == 3
        assert stats.cache_hit_rate == 0.5
        assert stats.enum_time_s > 0.0
        assert stats.filter_time_s > 0.0
        assert 0.0 < stats.latency_p50_s <= stats.latency_p95_s
        payload = stats.to_dict()
        import json

        json.dumps(payload)  # JSON-safe snapshot
        assert payload["cache"]["hit_rate"] == 0.5
        assert payload["schema"] == 7
        assert "shard_enum_time_s" not in payload
        assert "store_hits" not in payload["cache"]

    def test_invalidate_dataset_and_all(self, data, queries):
        service = MatchService(catalog={"a": data, "b": data})
        service.submit(MatchRequest("a", queries[0]))
        service.submit(MatchRequest("b", queries[0]))
        assert service.invalidate("a") == 1
        assert service.plan_cache.stats().plans == 1
        follow_up = service.submit(MatchRequest("a", queries[0]))
        assert not follow_up.cache_hit
        assert service.invalidate() == 2
        with pytest.raises(RegistryError, match="a, b"):
            service.invalidate("zzz")


class TestRequestPayloads:
    def test_request_round_trip(self, queries):
        request = MatchRequest(
            "tiny", queries[0], match_limit=9, time_limit=None,
            orderer="qsi", record_matches=True, tag="t1", tenant="a",
            priority=2, deadline_s=1.5,
        )
        back = MatchRequest.from_dict(request.to_dict())
        assert back == request

    def test_unset_limits_survive_round_trip(self, queries):
        request = MatchRequest("tiny", queries[0])
        payload = request.to_dict()
        assert "match_limit" not in payload and "time_limit" not in payload
        back = MatchRequest.from_dict(payload)
        assert back.match_limit is UNSET and back.time_limit is UNSET

    def test_response_round_trip_json(self, service, queries):
        import json

        response = service.submit(
            MatchRequest("tiny", queries[0], record_matches=True, tag="x")
        )
        payload = json.loads(json.dumps(response.to_dict()))
        back = MatchResponse.from_dict(payload)
        assert back == response

    def test_malformed_payloads_raise(self):
        with pytest.raises(ReproError, match="malformed match-request"):
            MatchRequest.from_dict({"dataset": "x"})
        with pytest.raises(ReproError, match="malformed match-response"):
            MatchResponse.from_dict({"dataset": "x"})
