"""Tests for the cost-aware admission/scheduling tier.

Three layers, matching the scheduler's own decomposition:

* the pure ordering — :func:`entry_sort_key` and
  :class:`AdmissionQueue` pop order, property-tested with hypothesis
  (deadline-then-cost within a priority class, deadline-carrying work
  never starves behind deadline-less work, FIFO as the final tiebreak);
* the admission policy — the per-tenant in-flight cap, bounded
  queue backpressure, queue-deadline expiry — driven against a stub
  service whose execution the test controls with events, so the
  concurrency claims are deterministic rather than timing-lucky;
* the standing invariant — scheduling changes *when* work runs, never
  *what it returns*: a scheduled request (including the
  degraded-retry path) is bit-identical to the equivalent direct
  ``MatchService.submit`` call.
"""

import dataclasses
import math
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.graphs import erdos_renyi, extract_query
from repro.service import (
    ERROR_HTTP_STATUS,
    UNSET,
    CostAwareScheduler,
    MatchRequest,
    MatchResponse,
    MatchService,
    SchedulerConfig,
    ServiceError,
    error_payload,
    http_status_for,
)
from repro.service.scheduler import (
    DEFAULT_TENANT,
    RETRY_AFTER_S,
    AdmissionQueue,
    _Entry,
    entry_sort_key,
)
from repro.service.service import STATS_SCHEMA_VERSION


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(200, 700, 3, seed=7)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(0)
    return [extract_query(data, 5, rng) for _ in range(4)]


def outcome(response: MatchResponse):
    return (
        response.matches,
        response.order,
        response.num_matches,
        response.num_enumerations,
        response.timed_out,
        response.limit_reached,
    )


# ---------------------------------------------------------------------------
# Error envelope + wire fields (satellites 1 and 2)
# ---------------------------------------------------------------------------
class TestEnvelope:
    def test_request_round_trip_with_scheduling_fields(self, queries):
        request = MatchRequest(
            "tiny", queries[0], tenant="acme", priority=2, deadline_s=1.5,
            tag="r1",
        )
        payload = request.to_dict()
        assert payload["tenant"] == "acme"
        assert payload["priority"] == 2
        assert payload["deadline_s"] == 1.5
        back = MatchRequest.from_dict(payload)
        assert (back.tenant, back.priority, back.deadline_s) == ("acme", 2, 1.5)

    def test_request_defaults_stay_off_the_wire(self, queries):
        payload = MatchRequest("tiny", queries[0]).to_dict()
        assert "tenant" not in payload
        assert "priority" not in payload
        assert "deadline_s" not in payload
        back = MatchRequest.from_dict(payload)
        assert (back.tenant, back.priority, back.deadline_s) == (None, 0, None)

    @pytest.mark.parametrize("deadline_s", [-1.0, 0.0, -math.inf],
                             ids=["negative", "zero", "minus-inf"])
    def test_non_positive_deadline_is_a_validation_error(
        self, queries, deadline_s
    ):
        with pytest.raises(ReproError, match="deadline_s must be positive") as err:
            MatchRequest("tiny", queries[0], deadline_s=deadline_s)
        assert MatchResponse.failure(
            MatchRequest("tiny", queries[0]), err.value
        ).error_code == "validation"
        payload = dict(MatchRequest("tiny", queries[0]).to_dict(),
                       deadline_s=deadline_s)
        with pytest.raises(ReproError, match="deadline_s must be positive"):
            MatchRequest.from_dict(payload)

    def test_infinite_deadline_stays_legal(self, queries):
        request = MatchRequest("tiny", queries[0], deadline_s=math.inf)
        assert MatchRequest.from_dict(request.to_dict()).deadline_s == math.inf

    def test_response_round_trip_with_scheduling_fields(self, queries):
        response = MatchResponse.failure(
            MatchRequest("tiny", queries[0], tag="r2"),
            ServiceError("full", code="rejected", retry_after_s=2.0),
        )
        served = replace(
            response, queue_time_s=0.25, attempts=2, degraded=True
        )
        payload = served.to_dict()
        assert payload["code"] == "rejected"
        assert payload["queue_time_s"] == 0.25
        assert payload["attempts"] == 2
        assert payload["degraded"] is True
        back = MatchResponse.from_dict(payload)
        assert back.error_code == "rejected"
        assert (back.queue_time_s, back.attempts, back.degraded) == (
            0.25, 2, True,
        )

    def test_failure_derives_codes_from_exceptions(self, queries):
        request = MatchRequest("tiny", queries[0])
        assert MatchResponse.failure(request, ReproError("x")).error_code == (
            "validation"
        )
        assert MatchResponse.failure(request, ValueError("x")).error_code == (
            "internal"
        )
        expired = ServiceError("late", code="deadline_expired")
        assert MatchResponse.failure(request, expired).error_code == (
            "deadline_expired"
        )

    def test_one_status_table(self):
        assert http_status_for("rejected") == 429
        assert http_status_for("deadline_expired") == 504
        assert http_status_for("timeout") == 504
        assert http_status_for("validation") == 400
        assert http_status_for("nonsense") == 500
        assert http_status_for(None) == 500
        for code, status in ERROR_HTTP_STATUS.items():
            error = ServiceError("m", code=code)
            assert http_status_for(error.code) == status

    def test_error_payload_shape(self):
        payload = error_payload(
            ServiceError("full", code="rejected", retry_after_s=1.0)
        )
        assert payload == {
            "error": "full", "code": "rejected", "retry_after_s": 1.0,
        }
        assert error_payload(ValueError("boom")) == {
            "error": "boom", "code": "internal",
        }

    def test_service_error_refuses_unknown_codes(self):
        with pytest.raises(ValueError, match="unknown error code"):
            ServiceError("m", code="not-a-code")


# ---------------------------------------------------------------------------
# Queue ordering (hypothesis)
# ---------------------------------------------------------------------------
def _make_entry(seq, priority=0, deadline=None, cost=0.0, request=None):
    from concurrent.futures import Future

    return _Entry(
        request=request
        if request is not None
        else MatchRequest("tiny", None, priority=priority),
        future=Future(),
        tenant="t",
        cost=cost,
        deadline=deadline,
        enqueued_at=0.0,
        seq=seq,
    )


entry_specs = st.lists(
    st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.one_of(
            st.none(),
            st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
        ),
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


class TestQueueOrdering:
    @given(specs=entry_specs)
    @settings(max_examples=60, deadline=None)
    def test_pop_order_is_the_sort_key_order(self, specs):
        queue = AdmissionQueue(capacity=len(specs))
        for seq, (priority, deadline, cost) in enumerate(specs):
            assert queue.push(
                _make_entry(seq, priority=priority, deadline=deadline, cost=cost)
            )
        popped = [queue.pop(timeout=0) for _ in specs]
        assert all(entry is not None for entry in popped)
        keys = [entry.sort_key for entry in popped]
        assert keys == sorted(keys)

    @given(specs=entry_specs)
    @settings(max_examples=60, deadline=None)
    def test_deadline_work_never_starves_behind_deadline_less(self, specs):
        # Within one priority class, every deadline-carrying entry pops
        # before every deadline-less one, no matter how cheap the
        # latter claims to be — the anti-starvation half of the order.
        queue = AdmissionQueue(capacity=len(specs))
        for seq, (_, deadline, cost) in enumerate(specs):
            assert queue.push(_make_entry(seq, deadline=deadline, cost=cost))
        popped = [queue.pop(timeout=0) for _ in specs]
        seen_deadline_less = False
        for entry in popped:
            if entry.deadline is None:
                seen_deadline_less = True
            else:
                assert not seen_deadline_less

    @given(
        costs=st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=2,
            max_size=20,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_cost_entries_stay_fifo(self, costs):
        queue = AdmissionQueue(capacity=2 * len(costs))
        for seq, cost in enumerate(costs):
            queue.push(_make_entry(seq, cost=cost))
        popped = [queue.pop(timeout=0) for _ in costs]
        by_cost: dict[float, list[int]] = {}
        for entry in popped:
            by_cost.setdefault(entry.cost, []).append(entry.seq)
        for seqs in by_cost.values():
            assert seqs == sorted(seqs)

    def test_sort_key_shape(self):
        assert entry_sort_key() == (0, math.inf, 0.0, 0)
        assert entry_sort_key(priority=1) < entry_sort_key(priority=0)
        assert entry_sort_key(deadline=1.0, cost=1e9) < entry_sort_key(cost=0.0)

    def test_push_past_capacity_is_refused(self):
        queue = AdmissionQueue(capacity=2)
        assert queue.push(_make_entry(0))
        assert queue.push(_make_entry(1))
        assert not queue.push(_make_entry(2))
        assert len(queue) == 2

    def test_close_drains_then_returns_none(self):
        queue = AdmissionQueue(capacity=4)
        queue.push(_make_entry(0))
        queue.push(_make_entry(1))
        queue.close()
        assert not queue.push(_make_entry(2))
        assert queue.pop() is not None
        assert queue.pop() is not None
        assert queue.pop() is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


# ---------------------------------------------------------------------------
# Admission policy against a controllable stub service
# ---------------------------------------------------------------------------
def make_response(request: MatchRequest, **overrides) -> MatchResponse:
    fields = dict(
        dataset=request.dataset,
        fingerprint="fp",
        cache_hit=False,
        order=(0,),
        num_matches=1,
        num_enumerations=1,
        timed_out=False,
        limit_reached=False,
        matches=(),
        filter_time=0.0,
        order_time=0.0,
        enum_time=0.0,
        total_time=0.0,
        tag=request.tag,
    )
    fields.update(overrides)
    return MatchResponse(**fields)


class StubPlan:
    """What admission reads off a plan: its static cost estimate."""

    def __init__(self, estimated_cost: float):
        self.estimated_cost = estimated_cost


class StubCatalog:
    """A catalog with one matcher for any dataset and orderer name."""

    def matcher(self, dataset, orderer):
        return None


class GatedService:
    """Stub service whose ``submit`` blocks until released.

    Tracks the high-water mark of concurrent executions, which is what
    the budget tests assert on.  Admission estimates a request's cost
    the way it does against a real service — ``catalog.matcher`` then
    ``_plan_canonical`` — and gets a plan carrying ``cost``.
    """

    catalog = StubCatalog()

    def __init__(self, cost: float = 0.0):
        self.cost = cost
        self.gate = threading.Event()
        self.lock = threading.Lock()
        self.running = 0
        self.max_running = 0
        self.served: list[MatchRequest] = []

    def _plan_canonical(self, matcher, query):
        return None, StubPlan(self.cost), False

    def submit(self, request: MatchRequest) -> MatchResponse:
        with self.lock:
            self.running += 1
            self.max_running = max(self.max_running, self.running)
            self.served.append(request)
        try:
            assert self.gate.wait(timeout=30)
            return make_response(request)
        finally:
            with self.lock:
                self.running -= 1


@pytest.fixture()
def tiny_query(queries):
    return queries[0]


class TestAdmissionPolicy:
    def test_tenant_inflight_cap_never_exceeded(self, tiny_query):
        stub = GatedService(cost=1.0)
        config = SchedulerConfig(workers=4, tenant_max_inflight=2)
        with CostAwareScheduler(stub, config) as sched:
            first = sched.submit(MatchRequest("d", tiny_query, tenant="acme"))
            second = sched.submit(MatchRequest("d", tiny_query, tenant="acme"))
            with pytest.raises(ServiceError) as third:
                sched.submit(MatchRequest("d", tiny_query, tenant="acme"))
            assert third.value.code == "rejected"
            assert third.value.retry_after_s == RETRY_AFTER_S
            # Another tenant is not affected by acme's cap.
            other = sched.submit(MatchRequest("d", tiny_query, tenant="beta"))
            stub.gate.set()
            assert first.result(timeout=30).ok
            assert second.result(timeout=30).ok
            assert other.result(timeout=30).ok
            assert stub.max_running <= 4
            stats = sched.stats()
            assert stats.tenants["acme"]["rejected"] == 1
            assert stats.tenants["acme"]["completed"] == 2
            assert stats.tenants["acme"]["inflight"] == 0

    def test_full_queue_rejects_with_retry_after(self, tiny_query):
        stub = GatedService(cost=2.5)
        config = SchedulerConfig(workers=1, queue_capacity=1)
        with CostAwareScheduler(stub, config) as sched:
            running = sched.submit(MatchRequest("d", tiny_query))
            # Wait until the worker has picked the first entry up, so
            # the single queue slot is genuinely what the next two race
            # for.
            deadline = time.monotonic() + 30
            while not stub.running and time.monotonic() < deadline:
                time.sleep(0.005)
            queued = sched.submit(MatchRequest("d", tiny_query))
            with pytest.raises(ServiceError) as rejected:
                sched.submit(MatchRequest("d", tiny_query))
            assert rejected.value.code == "rejected"
            assert rejected.value.retry_after_s == RETRY_AFTER_S
            assert "queue full" in str(rejected.value)
            # The rejected admission is rolled back: the tenant is billed
            # for the running and the queued request only.
            account = sched.stats().tenants[DEFAULT_TENANT]
            assert account["inflight"] == 2
            assert account["admitted"] == 2
            assert account["rejected"] == 1
            stub.gate.set()
            assert running.result(timeout=30).ok
            assert queued.result(timeout=30).ok
            assert sched.stats().rejected == 1

    def test_expired_in_queue_fails_fast_without_running(self, tiny_query):
        stub = GatedService()
        config = SchedulerConfig(workers=1)
        with CostAwareScheduler(stub, config) as sched:
            blocker = sched.submit(MatchRequest("d", tiny_query, tag="blocker"))
            deadline = time.monotonic() + 30
            while not stub.running and time.monotonic() < deadline:
                time.sleep(0.005)
            doomed = sched.submit(
                MatchRequest("d", tiny_query, deadline_s=0.05, tag="doomed")
            )
            time.sleep(0.1)  # let the queue deadline lapse, then release
            stub.gate.set()
            assert blocker.result(timeout=30).ok
            with pytest.raises(ServiceError) as expired:
                doomed.result(timeout=30)
            assert expired.value.code == "deadline_expired"
            # The expired request never reached the service.
            assert [r.tag for r in stub.served] == ["blocker"]
            stats = sched.stats()
            assert stats.expired == 1
            assert stats.completed == 1

    def test_totals_are_the_sums_over_tenants(self, tiny_query):
        # One request per outcome, each under its own tenant: completed,
        # rejected by the in-flight cap, expired in the queue, failed,
        # and served by the degraded retry.
        class ScriptedService(GatedService):
            def submit(self, request):
                if request.tag == "blocker":
                    return super().submit(request)
                self.served.append(request)
                if request.tag == "error":
                    raise ReproError("scripted failure")
                first_attempt = request.match_limit is UNSET
                return make_response(
                    request, timed_out=request.tag == "slow" and first_attempt
                )

        stub = ScriptedService()
        config = SchedulerConfig(workers=1, tenant_max_inflight=1)
        with CostAwareScheduler(stub, config) as sched:
            blocker = sched.submit(
                MatchRequest("d", tiny_query, tenant="a", tag="blocker")
            )
            deadline = time.monotonic() + 30
            while not stub.running and time.monotonic() < deadline:
                time.sleep(0.005)
            with pytest.raises(ServiceError):
                sched.submit(MatchRequest("d", tiny_query, tenant="a"))
            doomed = sched.submit(
                MatchRequest("d", tiny_query, tenant="b", deadline_s=0.05)
            )
            time.sleep(0.1)
            stub.gate.set()
            assert blocker.result(timeout=30).ok
            with pytest.raises(ServiceError):
                doomed.result(timeout=30)
            failing = sched.submit(
                MatchRequest("d", tiny_query, tenant="c", tag="error")
            )
            with pytest.raises(ReproError, match="scripted"):
                failing.result(timeout=30)
            slow = sched.submit(
                MatchRequest("d", tiny_query, tenant="e", tag="slow")
            )
            assert slow.result(timeout=30).degraded
            stats = sched.stats()
        expected = {
            "admitted": 4, "rejected": 1, "expired": 1,
            "degraded": 1, "completed": 2, "errors": 1,
        }
        for key, total in expected.items():
            assert getattr(stats, key) == total, key
            assert sum(t[key] for t in stats.tenants.values()) == total, key
            assert stats.to_dict()[key] == total, key
        assert all(t["inflight"] == 0 for t in stats.tenants.values())

    def test_submit_after_shutdown_is_rejected(self, tiny_query):
        stub = GatedService()
        stub.gate.set()
        sched = CostAwareScheduler(stub)
        sched.shutdown()
        with pytest.raises(ServiceError) as rejected:
            sched.submit(MatchRequest("d", tiny_query))
        assert rejected.value.code == "rejected"

    def test_submit_racing_shutdown_says_shut_down(self, tiny_query):
        # ``shutdown`` closes the queue after ``submit`` has passed its
        # own closed check: the rejection names the shutdown, not a
        # full queue.
        stub = GatedService()
        sched = CostAwareScheduler(stub)
        try:
            sched._queue.close()
            with pytest.raises(ServiceError) as rejected:
                sched.submit(MatchRequest("d", tiny_query))
            assert rejected.value.code == "rejected"
            assert "shut down" in str(rejected.value)
            assert "queue full" not in str(rejected.value)
            assert sched.stats().tenants[DEFAULT_TENANT]["inflight"] == 0
            assert stub.served == []
        finally:
            sched.shutdown()


# ---------------------------------------------------------------------------
# The configuration: six fields, each checked at construction
# ---------------------------------------------------------------------------
#: Fields that left ``SchedulerConfig``, each with a value it used to
#: take: the calibrator's smoothing factor, and the knobs only tests
#: set.
RETIRED_FIELDS = [
    ("calibration_alpha", 0.2),
    ("default_deadline_s", 1.5),
    ("tenant_cost_budget", 40.0),
    ("degrade_time_limit", 0.25),
    ("degrade_orderer", "ri"),
    ("degrade_match_limit", 9),
    ("retry_after_s", 2.0),
    ("default_tenant", "anon"),
]


class TestConfig:
    def test_exactly_six_fields(self):
        assert [f.name for f in dataclasses.fields(SchedulerConfig)] == [
            "workers", "queue_capacity", "tenant_max_inflight",
            "retry_degrade", "executor", "process_workers",
        ]

    @pytest.mark.parametrize(
        "name, value", RETIRED_FIELDS, ids=[name for name, _ in RETIRED_FIELDS]
    )
    def test_retired_field_is_a_type_error(self, data, name, value):
        services = []
        with pytest.raises(TypeError, match=name):
            services.append(MatchService(
                catalog={"tiny": data}, scheduler=SchedulerConfig(**{name: value})
            ))
        assert services == []

    @pytest.mark.parametrize("field_name, value", [
        ("workers", 0),
        ("workers", -2),
        ("queue_capacity", 0),
        ("process_workers", 0),
        ("executor", "fork"),
        ("tenant_max_inflight", 0),
        ("tenant_max_inflight", -1),
    ], ids=["workers-0", "workers-neg", "queue_capacity-0",
            "process_workers-0", "executor", "tenant_max_inflight-0",
            "tenant_max_inflight-neg"])
    def test_bad_value_is_a_value_error(self, field_name, value):
        with pytest.raises(ValueError, match=f"SchedulerConfig.{field_name} "):
            SchedulerConfig(**{field_name: value})

    @pytest.mark.parametrize("cap", [None, 1])
    def test_smallest_legal_inflight_cap_serves(self, tiny_query, cap):
        stub = GatedService()
        stub.gate.set()
        config = SchedulerConfig(workers=1, tenant_max_inflight=cap)
        with CostAwareScheduler(stub, config) as sched:
            assert sched.submit(MatchRequest("d", tiny_query)).result(
                timeout=30
            ).ok


# ---------------------------------------------------------------------------
# Bit-identity: scheduling never changes what a request returns
# ---------------------------------------------------------------------------
class TestBitIdentity:
    def test_scheduled_matches_direct_submit(self, data, queries):
        direct_service = MatchService(catalog={"tiny": data})
        scheduled_service = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=2)
        )
        try:
            for i, query in enumerate(queries):
                request = MatchRequest(
                    "tiny", query, record_matches=True, tag=f"q{i}"
                )
                expected = direct_service.submit(request)
                served = scheduled_service.submit_scheduled(request).result(
                    timeout=60
                )
                assert served.ok and expected.ok
                assert outcome(served) == outcome(expected)
                assert served.fingerprint == expected.fingerprint
                assert served.attempts == 1 and not served.degraded
                assert served.queue_time_s >= 0.0
        finally:
            direct_service.close()
            scheduled_service.close()

    def test_submit_many_routes_through_scheduler_bit_identically(
        self, data, queries
    ):
        requests = [
            MatchRequest("tiny", query, record_matches=True, tag=f"q{i}")
            for i, query in enumerate(queries)
        ]
        # One invalid request: captured as a failure response in-order.
        requests.insert(2, MatchRequest("nope", queries[0], tag="bad"))
        direct_service = MatchService(catalog={"tiny": data})
        scheduled_service = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=3)
        )
        try:
            expected = direct_service.submit_many(requests)
            served = scheduled_service.submit_many(requests)
            assert [r.tag for r in served] == [r.tag for r in expected]
            for mine, theirs in zip(served, expected):
                assert mine.ok == theirs.ok
                if mine.ok:
                    assert outcome(mine) == outcome(theirs)
                else:
                    assert mine.tag == "bad" and mine.error
            assert scheduled_service.stats().scheduler["completed"] == len(
                queries
            )
        finally:
            direct_service.close()
            scheduled_service.close()

    def test_degraded_retry_is_bit_identical_to_direct_degraded_call(
        self, data, queries, monkeypatch
    ):
        # Force the retry path deterministically: the first submit for
        # each request reports timed_out (with otherwise-real fields),
        # the retry passes through.  The scheduler must then serve
        # exactly what a direct call under the degraded envelope
        # serves, marked degraded=True / attempts=2.
        service = MatchService(catalog={"tiny": data})

        class FlakyFirstAttempt:
            def __init__(self, inner):
                self.inner = inner
                self.calls: list[MatchRequest] = []
                # Admission plans through the real service.
                self.catalog = inner.catalog
                self._plan_canonical = inner._plan_canonical

            def submit(self, request):
                self.calls.append(request)
                response = self.inner.submit(request)
                if len(self.calls) == 1:
                    return replace(response, timed_out=True)
                return response

        flaky = FlakyFirstAttempt(service)
        # A limit that bites on this query, so the retry is truncated.
        monkeypatch.setattr("repro.service.scheduler.DEGRADE_MATCH_LIMIT", 3)
        config = SchedulerConfig(workers=1, retry_degrade=True)
        try:
            with CostAwareScheduler(flaky, config) as sched:
                request = MatchRequest("tiny", queries[0], record_matches=True)
                served = sched.submit(request).result(timeout=60)
                assert served.degraded and served.attempts == 2
                degraded_request = flaky.calls[1]
                assert degraded_request.match_limit == 3
                expected = service.submit(degraded_request)
                assert outcome(served) == outcome(expected)
                assert sched.stats().degraded == 1
        finally:
            service.close()

    def test_degrade_only_tightens_limits(self, data, queries):
        service = MatchService(catalog={"tiny": data})

        class AlwaysTimedOut:
            def __init__(self, inner):
                self.inner = inner
                self.calls: list[MatchRequest] = []
                # Admission plans through the real service.
                self.catalog = inner.catalog
                self._plan_canonical = inner._plan_canonical

            def submit(self, request):
                self.calls.append(request)
                return replace(self.inner.submit(request), timed_out=True)

        flaky = AlwaysTimedOut(service)
        config = SchedulerConfig(workers=1, retry_degrade=True)
        try:
            with CostAwareScheduler(flaky, config) as sched:
                # Already tighter than the degraded envelope: no retry
                # exists, the timed-out response is served as attempt 1.
                request = MatchRequest("tiny", queries[0], match_limit=5)
                served = sched.submit(request).result(timeout=60)
                assert not served.degraded and served.attempts == 1
                assert len(flaky.calls) == 1
        finally:
            service.close()


# ---------------------------------------------------------------------------
# Service integration + stats schema (satellite 3)
# ---------------------------------------------------------------------------
class TestServiceIntegration:
    def test_submit_scheduled_requires_a_scheduler(self, data, queries):
        service = MatchService(catalog={"tiny": data})
        try:
            with pytest.raises(ReproError, match="scheduler"):
                service.submit_scheduled(MatchRequest("tiny", queries[0]))
        finally:
            service.close()

    def test_stats_carry_schema_and_scheduler_block(self, data, queries):
        plain = MatchService(catalog={"tiny": data})
        scheduled = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=1)
        )
        try:
            plain_stats = plain.stats().to_dict()
            assert plain_stats["schema"] == STATS_SCHEMA_VERSION
            assert plain_stats["scheduler"] is None
            scheduled.submit_scheduled(
                MatchRequest("tiny", queries[0], tenant="acme")
            ).result(timeout=60)
            stats = scheduled.stats().to_dict()
            assert stats["schema"] == STATS_SCHEMA_VERSION == 7
            sched_block = stats["scheduler"]
            assert sched_block["admitted"] == 1
            assert sched_block["completed"] == 1
            assert "calibration" not in sched_block
            assert sched_block["tenants"]["acme"] == {
                "inflight": 0, "admitted": 1, "rejected": 0, "expired": 0,
                "degraded": 0, "completed": 1, "errors": 0,
            }
        finally:
            plain.close()
            scheduled.close()

    def test_scheduler_true_uses_defaults(self, data, queries):
        service = MatchService(catalog={"tiny": data}, scheduler=True)
        try:
            assert service.scheduler is not None
            assert service.scheduler.config == SchedulerConfig()
            response = service.submit_scheduled(
                MatchRequest("tiny", queries[0])
            ).result(timeout=60)
            assert response.ok
        finally:
            service.close()

    def test_close_shuts_the_scheduler_down(self, data, queries):
        service = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=1)
        )
        service.close()
        with pytest.raises(ServiceError) as rejected:
            service.submit_scheduled(MatchRequest("tiny", queries[0]))
        assert rejected.value.code == "rejected"

    def test_estimation_warms_the_plan_cache(self, data, queries):
        # Admission plans through the shared cache, so the worker's
        # execution of a cold request is already a cache hit — the
        # mechanism that makes scheduling free of duplicated planning.
        service = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=1)
        )
        try:
            served = service.submit_scheduled(
                MatchRequest("tiny", queries[1])
            ).result(timeout=60)
            assert served.cache_hit
        finally:
            service.close()

    def test_admission_orders_by_the_plans_static_estimate(self, data):
        # Interleaved Q4/Q8 traffic, after both sizes have completed
        # runs: the queue pops in (priority, deadline,
        # plan.estimated_cost, seq) order — what a size has cost before
        # never rescales its estimate.
        rng = np.random.default_rng(3)
        small = [extract_query(data, 4, rng) for _ in range(4)]
        large = [extract_query(data, 8, rng) for _ in range(4)]
        service = MatchService(
            catalog={"tiny": data}, scheduler=SchedulerConfig(workers=1)
        )
        gated = RecordingGate(service)
        try:
            for query in small + large:
                assert service.submit_scheduled(
                    MatchRequest("tiny", query)
                ).result(timeout=60).ok
            assert service.stats().scheduler["completed"] == 8
            service.submit = gated
            blocker = service.submit_scheduled(
                MatchRequest("tiny", small[0], tag="blocker")
            )
            assert gated.entered.acquire(timeout=60)
            interleaved = [q for pair in zip(large, small) for q in pair]
            priority = [1 if i == 5 else 0 for i in range(len(interleaved))]
            deadline_s = [600.0 if i == 2 else None for i in range(len(interleaved))]
            futures = [
                service.submit_scheduled(MatchRequest(
                    "tiny", query, tag=str(i), priority=priority[i],
                    deadline_s=deadline_s[i],
                ))
                for i, query in enumerate(interleaved)
            ]
            matcher = service.catalog.matcher("tiny", None)
            costs = [
                service._plan_canonical(matcher, query)[1].estimated_cost
                for query in interleaved
            ]
            # Every queued entry is billed at exactly its plan's estimate.
            queued = {
                entry.request.tag: entry.cost
                for _, entry in service.scheduler._queue._heap
            }
            assert queued == {str(i): cost for i, cost in enumerate(costs)}
            gated.gate.set()
            assert blocker.result(timeout=60).ok
            assert all(future.result(timeout=60).ok for future in futures)
        finally:
            gated.gate.set()
            service.close()
        expected = sorted(
            range(len(interleaved)),
            key=lambda i: (-priority[i], deadline_s[i] is None, costs[i], i),
        )
        assert gated.tags[1:] == [str(i) for i in expected]
        # The estimate, not the arrival order, decided: the Q4s and Q8s
        # cost different amounts and did not run as they arrived.
        assert len({cost for cost in costs}) > 2
        assert expected != sorted(expected)


class RecordingGate:
    """Wrap ``service.submit``: record each request's tag in execution
    order, and hold executions until released."""

    def __init__(self, service):
        self.inner = service.submit
        self.gate = threading.Event()
        self.entered = threading.Semaphore(0)
        self.tags: list[str] = []

    def __call__(self, request):
        self.tags.append(request.tag)
        self.entered.release()
        assert self.gate.wait(timeout=60)
        return self.inner(request)
