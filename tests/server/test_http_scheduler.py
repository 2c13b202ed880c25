"""HTTP tests for the scheduled serving path and its error contract.

The scheduler's backpressure and deadline semantics must survive the
wire: a rejected admission is ``429 Too Many Requests`` carrying a
``Retry-After`` header and the stable ``code="rejected"`` payload; a
request that dies in the queue is ``504`` with
``code="deadline_expired"``; a served request echoes the scheduling
telemetry (``queue_time_s``/``attempts``/``degraded``) and stays
bit-identical to the direct path.

Timing is made deterministic by gating the service's ``submit`` on an
event: the single scheduler worker parks on a request the test
controls, so "queue full" and "expired in queue" are states the test
constructs, not races it hopes for.
"""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.graphs import erdos_renyi, extract_query
from repro.server import BackgroundServer
from repro.service import MatchRequest, MatchService, SchedulerConfig
from repro.service.service import STATS_SCHEMA_VERSION


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(150, 450, 3, seed=11)


@pytest.fixture(scope="module")
def query(data):
    return extract_query(data, 4, np.random.default_rng(2))


def post_match(background, body: dict):
    host, port = background.address
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        conn.request(
            "POST", "/match", body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        payload = json.loads(response.read())
        return response.status, payload, response.getheader("Retry-After")
    finally:
        conn.close()


def get_stats(background) -> dict:
    host, port = background.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/stats")
        response = conn.getresponse()
        assert response.status == 200
        return json.loads(response.read())
    finally:
        conn.close()


class GatedSubmit:
    """Wrap ``service.submit`` so executions block until released."""

    def __init__(self, service):
        self.inner = service.submit
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)

    def __call__(self, request):
        self.entered.release()
        assert self.gate.wait(timeout=60)
        return self.inner(request)


class TestScheduledServing:
    def test_served_response_carries_scheduling_telemetry(self, data, query):
        service = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=2)
        )
        direct = MatchService(catalog={"tiny": data})
        try:
            with BackgroundServer(service) as background:
                body = MatchRequest(
                    "tiny", query, record_matches=True,
                    tenant="acme", deadline_s=30.0, tag="t1",
                ).to_dict()
                status, payload, _ = post_match(background, body)
                assert status == 200
                assert payload["attempts"] == 1
                assert payload["degraded"] is False
                assert payload["queue_time_s"] >= 0.0
                expected = direct.submit(
                    MatchRequest("tiny", query, record_matches=True)
                )
                assert payload["num_matches"] == expected.num_matches
                assert payload["num_enumerations"] == expected.num_enumerations
                assert [
                    tuple(m) for m in payload["matches"]
                ] == list(expected.matches)
                stats = get_stats(background)
                assert stats["schema"] == STATS_SCHEMA_VERSION
                sched = stats["scheduler"]
                assert sched["completed"] == 1
                assert sched["tenants"]["acme"]["completed"] == 1
        finally:
            service.close()
            direct.close()

    def test_backpressure_is_429_with_retry_after(self, data, query):
        service = MatchService(
            catalog={"tiny": data},
            scheduler=SchedulerConfig(workers=1, queue_capacity=1),
        )
        gated = GatedSubmit(service)
        service.submit = gated
        try:
            with BackgroundServer(service) as background:
                results = {}

                def post(name, body):
                    results[name] = post_match(background, body)

                body = MatchRequest("tiny", query).to_dict()
                blocker = threading.Thread(target=post, args=("blocker", body))
                blocker.start()
                # The worker has picked the blocker up (it entered the
                # gated submit), so the single queue slot is free.
                assert gated.entered.acquire(timeout=60)
                queued = threading.Thread(target=post, args=("queued", body))
                queued.start()
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    if get_stats(background)["scheduler"]["queue_depth"] == 1:
                        break
                    time.sleep(0.01)
                status, payload, retry_after = post_match(background, body)
                assert status == 429
                assert payload["code"] == "rejected"
                assert "queue full" in payload["error"]
                assert retry_after == "1"
                gated.gate.set()
                blocker.join(timeout=60)
                queued.join(timeout=60)
                assert results["blocker"][0] == 200
                assert results["queued"][0] == 200
                stats = get_stats(background)
                assert stats["server"]["responses"]["429"] == 1
                assert stats["scheduler"]["rejected"] == 1
        finally:
            service.close()

    def test_queue_deadline_expiry_is_504(self, data, query):
        service = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=1)
        )
        gated = GatedSubmit(service)
        service.submit = gated
        try:
            with BackgroundServer(service) as background:
                results = {}

                def post(name, body):
                    results[name] = post_match(background, body)

                blocker = threading.Thread(
                    target=post,
                    args=("blocker", MatchRequest("tiny", query).to_dict()),
                )
                blocker.start()
                assert gated.entered.acquire(timeout=60)
                doomed_body = MatchRequest(
                    "tiny", query, deadline_s=0.05, tag="doomed"
                ).to_dict()
                doomed = threading.Thread(target=post, args=("doomed", doomed_body))
                doomed.start()
                time.sleep(0.2)  # let the queueing deadline lapse
                gated.gate.set()
                blocker.join(timeout=60)
                doomed.join(timeout=60)
                assert results["blocker"][0] == 200
                status, payload, _ = results["doomed"]
                assert status == 504
                assert payload["code"] == "deadline_expired"
                assert "never ran" in payload["error"]
                stats = get_stats(background)
                assert stats["scheduler"]["expired"] == 1
        finally:
            service.close()

    @pytest.mark.parametrize("deadline_s", [-1.0, 0.0], ids=["negative", "zero"])
    def test_non_positive_deadline_is_400_and_never_admitted(
        self, data, query, deadline_s
    ):
        service = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=1)
        )
        try:
            with BackgroundServer(service) as background:
                body = dict(MatchRequest("tiny", query).to_dict(),
                            deadline_s=deadline_s)
                status, payload, _ = post_match(background, body)
                assert status == 400
                assert payload["code"] == "validation"
                assert "deadline_s must be positive" in payload["error"]
                sched = get_stats(background)["scheduler"]
                assert (sched["admitted"], sched["expired"]) == (0, 0)
        finally:
            service.close()

    def test_infinite_deadline_is_served(self, data, query):
        service = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=1)
        )
        try:
            with BackgroundServer(service) as background:
                body = MatchRequest(
                    "tiny", query, deadline_s=float("inf")
                ).to_dict()
                status, payload, _ = post_match(background, body)
                assert status == 200 and payload["attempts"] == 1
                assert get_stats(background)["scheduler"]["completed"] == 1
        finally:
            service.close()

    def test_validation_errors_keep_their_envelope_on_the_wire(self, data, query):
        service = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=1)
        )
        try:
            with BackgroundServer(service) as background:
                body = MatchRequest("nope", query).to_dict()
                status, payload, _ = post_match(background, body)
                assert status == 400
                assert payload["code"] == "validation"
                assert "error" in payload and "type" in payload
        finally:
            service.close()
