"""End-to-end tests of the asyncio HTTP tier over a real socket.

Everything here talks to a :class:`BackgroundServer` through
``http.client`` (or a raw socket where the framing itself is under
test) — the same wire a real client would use.
"""

import http.client
import json
import socket

import numpy as np
import pytest

from repro.graphs import erdos_renyi, extract_query
from repro.server import BackgroundServer
from repro.server.protocol import MAX_HEAD_BYTES
from repro.service import MatchRequest, MatchService, SchedulerConfig


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(150, 450, 3, seed=11)


@pytest.fixture(scope="module")
def query(data):
    return extract_query(data, 4, np.random.default_rng(2))


@pytest.fixture()
def served(data):
    service = MatchService(catalog={"tiny": data})
    with BackgroundServer(service) as background:
        yield service, background


def request_json(background, method, path, payload=None):
    host, port = background.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestRoutes:
    def test_healthz(self, served):
        _, background = served
        status, payload = request_json(background, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["datasets"] == ["tiny"]
        # Inline (no scheduler) services report the inline executor and
        # no process pool; liveness details arrive with executor tiers.
        assert payload["executor"]["kind"] == "inline"
        assert payload["executor"]["process_pool"] is None

    def test_match_cold_then_warm_is_bit_identical(self, served, query):
        _, background = served
        body = MatchRequest("tiny", query, record_matches=True).to_dict()
        status, cold = request_json(background, "POST", "/match", body)
        assert status == 200 and not cold["cache_hit"]
        status, warm = request_json(background, "POST", "/match", body)
        assert status == 200 and warm["cache_hit"]
        for field in ("num_matches", "num_enumerations", "matches", "order"):
            assert warm[field] == cold[field]

    def test_per_request_overrides_apply(self, served, query):
        _, background = served
        # "enumerator" is a key older clients still send; like any
        # unknown key it is ignored.
        body = dict(
            MatchRequest("tiny", query, match_limit=1).to_dict(),
            enumerator="vectorized",
        )
        status, payload = request_json(background, "POST", "/match", body)
        assert status == 200
        assert payload["num_matches"] == 1 and payload["limit_reached"]

    def test_stats_reflects_served_traffic(self, served, query):
        _, background = served
        body = MatchRequest("tiny", query).to_dict()
        request_json(background, "POST", "/match", body)
        status, stats = request_json(background, "GET", "/stats")
        assert status == 200
        assert stats["requests"] >= 1
        assert stats["server"]["http_requests"] >= 2
        assert stats["server"]["responses"]["200"] >= 1
        assert "latency_p99_s" in stats

    def test_invalidate_scope(self, served, query):
        _, background = served
        body = MatchRequest("tiny", query).to_dict()
        request_json(background, "POST", "/match", body)
        status, payload = request_json(
            background, "POST", "/admin/invalidate", {"dataset": "tiny"}
        )
        assert status == 200 and payload["invalidated"] == 1
        _, again = request_json(background, "POST", "/match", body)
        assert not again["cache_hit"]


class TestErrors:
    def test_unknown_route_is_404(self, served):
        _, background = served
        status, payload = request_json(background, "GET", "/nope")
        assert status == 404 and payload["type"] == "NotFound"

    def test_stream_route_is_gone(self, served, query):
        _, background = served
        body = MatchRequest("tiny", query, record_matches=True).to_dict()
        status, payload = request_json(background, "POST", "/match/stream", body)
        assert status == 404
        assert payload["type"] == "NotFound"
        assert payload["code"] == "validation" and "error" in payload

    @pytest.mark.parametrize("scheduled", [False, True], ids=["direct", "scheduled"])
    @pytest.mark.parametrize("path, fields", [
        ("/match", {"dataset": ["tiny"]}),
        ("/match", {"orderer": ["ri"]}),
        ("/match", {"tenant": ["a"]}),
        ("/match", {"tag": 7}),
        ("/match", {"match_limit": "10"}),
        ("/match", {"match_limit": True}),
        ("/match", {"time_limit": "x"}),
        ("/match", {"deadline_s": "soon"}),
        ("/admin/invalidate", {"dataset": [1]}),
        ("/match", {"priority": "5"}),
        ("/match", {"priority": 2.7}),
        ("/match", {"priority": True}),
        # Sent as ``Infinity``; the server parses it to the same value a
        # ``1e999`` literal becomes.
        ("/match", {"priority": float("inf")}),
        ("/match", {"deadline_s": float("nan")}),
        ("/match", {"time_limit": float("nan")}),
        # Not truthiness: "false" would otherwise record every match.
        ("/match", {"record_matches": "false"}),
        ("/match", {"record_matches": 1}),
        ("/match", {"stream": "yes"}),
        # Query labels and endpoints are checked, never coerced: 0.9 is
        # not label 0, and a value past int64 is no 500.
        ("/match", {"query": {"labels": [0.9, 1], "edges": [[0, 1]]}}),
        ("/match", {"query": {"labels": [True, 1], "edges": [[0, 1]]}}),
        ("/match", {"query": {"labels": ["0", 1], "edges": [[0, 1]]}}),
        ("/match", {"query": {"labels": [10**30, 1], "edges": [[0, 1]]}}),
        ("/match", {"query": {"labels": [0, 1], "edges": [[0, 1.0]]}}),
        ("/match", {"query": {"labels": [0, 1], "edges": [[False, True]]}}),
        ("/match", {"query": {"labels": [0, 1], "edges": [[0, 10**30]]}}),
    ], ids=[
        "dataset", "orderer", "tenant", "tag", "match_limit-str",
        "match_limit-bool", "time_limit", "deadline_s", "invalidate",
        "priority-str", "priority-float", "priority-bool", "priority-inf",
        "deadline_s-nan", "time_limit-nan", "record_matches-str",
        "record_matches-int", "stream-str", "label-float", "label-bool",
        "label-str", "label-past-int64", "endpoint-float", "endpoint-bool",
        "endpoint-past-int64",
    ])
    def test_wrongly_typed_fields_are_400_validation(
        self, data, query, scheduled, path, fields
    ):
        service = MatchService(
            catalog={"tiny": data},
            scheduler=SchedulerConfig(workers=1) if scheduled else None,
        )
        try:
            with BackgroundServer(service) as background:
                body = fields if path != "/match" else dict(
                    MatchRequest("tiny", query).to_dict(), **fields
                )
                status, payload = request_json(background, "POST", path, body)
                _, stats = request_json(background, "GET", "/stats")
        finally:
            service.close()
        assert status == 400 and payload["code"] == "validation"
        assert "500" not in stats["server"]["responses"]

    def test_wrong_method_is_405(self, served):
        _, background = served
        status, payload = request_json(background, "DELETE", "/match")
        assert status == 405 and payload["type"] == "MethodNotAllowed"

    def test_invalid_json_body_is_400(self, served):
        _, background = served
        host, port = background.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("POST", "/match", body="{not json")
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400 and "error" in payload

    def test_unknown_dataset_is_structured_400(self, served, query):
        _, background = served
        body = MatchRequest("missing", query).to_dict()
        status, payload = request_json(background, "POST", "/match", body)
        assert status == 400
        assert payload["type"] == "RegistryError"
        assert "missing" in payload["error"]

    def test_invalidate_unknown_dataset_is_400(self, served):
        _, background = served
        status, payload = request_json(
            background, "POST", "/admin/invalidate", {"dataset": "missing"}
        )
        assert status == 400 and payload["type"] == "RegistryError"

    def test_malformed_http_head_closes_with_400(self, served):
        _, background = served
        with socket.create_connection(background.address, timeout=30) as sock:
            sock.sendall(b"GARBAGE\r\n\r\n")
            raw = sock.recv(65536)
        assert raw.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in raw

    def test_protocol_errors_are_counted_in_stats(self, served):
        # The replies sent before a request is routed (a head past the
        # reader's limit, a body past the size limit) close the
        # connection and are counted like every other response.
        _, background = served

        def exchange(raw: bytes) -> bytes:
            with socket.create_connection(background.address, timeout=30) as sock:
                try:
                    sock.sendall(raw)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the server answered before reading it all
                chunks = []
                while chunk := sock.recv(65536):
                    chunks.append(chunk)
            return b"".join(chunks)

        pad = b"X-Pad: " + b"a" * (MAX_HEAD_BYTES + 16) + b"\r\n"
        head_too_large = exchange(b"GET /stats HTTP/1.1\r\n" + pad + b"\r\n")
        assert head_too_large.startswith(b"HTTP/1.1 400 ")
        body_too_large = exchange(
            b"POST /match HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"
        )
        assert body_too_large.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in body_too_large
        status, payload = request_json(background, "GET", "/stats")
        assert status == 200
        assert payload["server"]["responses"] == {"400": 1, "413": 1}

    def test_error_responses_keep_the_connection_usable(self, served, query):
        _, background = served
        host, port = background.address
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/nope")
            response = conn.getresponse()
            response.read()
            assert response.status == 404
            # Same connection, next request still served.
            body = json.dumps(MatchRequest("tiny", query).to_dict())
            conn.request("POST", "/match", body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200 and payload["num_matches"] > 0
        finally:
            conn.close()


class TestConcurrency:
    def test_parallel_clients_get_identical_answers(self, served, query):
        import concurrent.futures

        _, background = served
        body = MatchRequest("tiny", query, record_matches=True).to_dict()

        def one(_):
            return request_json(background, "POST", "/match", body)

        with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(one, range(12)))
        assert all(status == 200 for status, _ in results)
        first = results[0][1]
        for _, payload in results[1:]:
            assert payload["matches"] == first["matches"]
            assert payload["num_enumerations"] == first["num_enumerations"]
