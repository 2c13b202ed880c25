"""End-to-end tests of the asyncio HTTP tier over a real socket.

Everything here talks to a :class:`BackgroundServer` through
``http.client`` (or a raw socket where the chunked framing itself is
under test) — the same wire a real client would use.
"""

import http.client
import json
import socket
import time

import numpy as np
import pytest

from repro.graphs import erdos_renyi, extract_query
from repro.server import BackgroundServer
from repro.service import MatchRequest, MatchService


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


def read_chunked(sock):
    """Parse a chunked response off a raw socket; (head, chunks)."""
    buffer = b""
    while b"\r\n\r\n" not in buffer:
        buffer += sock.recv(65536)
    head, buffer = buffer.split(b"\r\n\r\n", 1)
    chunks = []
    while True:
        while b"\r\n" not in buffer:
            buffer += sock.recv(65536)
        size_hex, buffer = buffer.split(b"\r\n", 1)
        size = int(size_hex, 16)
        if size == 0:
            return head, chunks
        while len(buffer) < size + 2:
            buffer += sock.recv(65536)
        chunks.append(buffer[:size])
        buffer = buffer[size + 2:]


class TestStreaming:
    def test_chunked_framing_and_bit_identity_with_batch(self, served, query):
        _, background = served
        body = MatchRequest("tiny", query, record_matches=True).to_dict()
        _, batch = request_json(background, "POST", "/match", body)
        payload = json.dumps(body).encode()
        with socket.create_connection(background.address, timeout=30) as sock:
            sock.sendall(
                b"POST /match/stream HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(payload) + payload
            )
            head, chunks = read_chunked(sock)
        assert b"Transfer-Encoding: chunked" in head
        lines = [json.loads(chunk) for chunk in chunks]
        summary = lines[-1]
        matches = [line["match"] for line in lines[:-1]]
        assert summary["done"]
        assert matches == batch["matches"]
        assert summary["num_matches"] == batch["num_matches"]
        assert summary["num_enumerations"] == batch["num_enumerations"]

    def test_first_chunk_is_an_embedding_not_the_summary(self, served, query):
        # Per-embedding framing: the very first chunk off the wire must
        # be a match line, i.e. embeddings are flushed as produced, not
        # batched behind the summary.
        _, background = served
        body = json.dumps(
            MatchRequest("tiny", query, record_matches=True).to_dict()
        ).encode()
        with socket.create_connection(background.address, timeout=30) as sock:
            sock.sendall(
                b"POST /match/stream HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            buffer = b""
            while b"\r\n\r\n" not in buffer:
                buffer += sock.recv(65536)
            _, rest = buffer.split(b"\r\n\r\n", 1)
            while b"\n" not in rest.partition(b"\r\n")[2]:
                rest += sock.recv(65536)
            first_line = json.loads(rest.split(b"\r\n", 1)[1].split(b"\n")[0])
        assert "match" in first_line and "done" not in first_line

    def test_early_client_close_leaves_server_healthy(self, served):
        from repro.service.catalog import CatalogEntry

        service, background = served
        # A dense graph with a triangle query yields many embeddings;
        # hang up after the first chunk and the server must stop the
        # search and keep serving.
        dense = erdos_renyi(60, 500, 1, seed=3)
        service.catalog.add(CatalogEntry(name="dense", data=dense))
        triangle = extract_query(dense, 3, np.random.default_rng(0))
        body = json.dumps(MatchRequest("dense", triangle).to_dict()).encode()
        with socket.create_connection(background.address, timeout=30) as sock:
            sock.sendall(
                b"POST /match/stream HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body) + body
            )
            buffer = b""
            while b"\r\n" not in buffer.partition(b"\r\n\r\n")[2]:
                buffer += sock.recv(4096)
            # First chunk seen: hang up mid-stream.
        # The cancelled stream must still be metered and the server must
        # keep answering; the close is detected on the next drain, so
        # poll briefly.
        deadline = time.time() + 10
        cancelled = 0
        while time.time() < deadline:
            status, stats = request_json(background, "GET", "/stats")
            assert status == 200
            cancelled = stats["server"]["streams_cancelled"]
            if cancelled:
                break
            time.sleep(0.05)
        assert cancelled == 1
        status, payload = request_json(background, "GET", "/healthz")
        assert status == 200 and payload["status"] == "ok"
        service.catalog.remove("dense")


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
