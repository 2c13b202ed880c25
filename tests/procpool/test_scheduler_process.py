"""Scheduler × process-executor integration: the execution tier under
the cost-aware admission queue.

SIGSTOP on the single worker process is the determinism lever: a
stopped worker holds its in-flight request indefinitely, so
"queued-but-unstarted at shutdown" and "in-flight during shutdown" are
states the tests construct, not races they hope for.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.graphs import erdos_renyi, extract_query
from repro.service import MatchRequest, MatchService, SchedulerConfig
from repro.service.requests import ServiceError


@pytest.fixture(scope="module")
def data():
    return erdos_renyi(120, 360, 3, seed=7)


@pytest.fixture(scope="module")
def query(data):
    return extract_query(data, 4, np.random.default_rng(3))


def process_service(data, *, workers=1, **config):
    return MatchService(
        catalog={"tiny": data},
        scheduler=SchedulerConfig(
            workers=workers, executor="process", process_workers=workers,
            retry_degrade=False, **config,
        ),
    )


def worker_pid(service) -> int:
    return service.procpool._workers[0].process.pid


class TestServing:
    def test_scheduled_process_results_are_bit_identical(self, data, query):
        direct = MatchService(catalog={"tiny": data})
        try:
            want = direct.submit(MatchRequest("tiny", query, record_matches=True))
        finally:
            direct.close()
        service = process_service(data, workers=2)
        try:
            got = service.submit_scheduled(
                MatchRequest("tiny", query, record_matches=True)
            ).result(timeout=120)
            assert got.ok
            assert got.executor == "process"
            assert got.num_matches == want.num_matches
            assert got.num_enumerations == want.num_enumerations
            assert list(got.matches) == list(want.matches)
        finally:
            service.close()

    def test_stats_carry_the_execution_tier_surface(self, data, query):
        service = process_service(data, workers=2)
        try:
            service.submit_scheduled(
                MatchRequest("tiny", query)
            ).result(timeout=120)
            sched = service.stats().to_dict()["scheduler"]
            assert sched["executor"] == "process"
            assert sched["procpool"]["workers"] == 2
            assert sched["procpool"]["served"] == 1
            for retired in ("calibration", "durable", "recovered"):
                assert retired not in sched
        finally:
            service.close()

    def test_pool_failure_surfaces_as_internal_not_a_hang(self, data, query):
        service = process_service(data, workers=1)
        real = service.procpool.execute
        try:
            def failing(request):
                raise ServiceError(
                    "worker died mid-request", code="internal"
                )

            service.procpool.execute = failing
            future = service.submit_scheduled(MatchRequest("tiny", query))
            with pytest.raises(ServiceError) as err:
                future.result(timeout=60)
            assert err.value.code == "internal"
            # The tier recovers once the pool behaves again.
            service.procpool.execute = real
            assert service.submit_scheduled(
                MatchRequest("tiny", query)
            ).result(timeout=120).ok
        finally:
            service.procpool.execute = real
            service.close()


class TestShutdown:
    def test_shutdown_with_inflight_work_drains_without_deadlock(
        self, data, query
    ):
        service = process_service(data, workers=1)
        try:
            os.kill(worker_pid(service), signal.SIGSTOP)
            futures = [
                service.submit_scheduled(MatchRequest("tiny", query))
                for _ in range(3)
            ]
            closer = threading.Thread(
                target=service.scheduler.shutdown, kwargs={"wait": True}
            )
            closer.start()
            time.sleep(0.2)  # let shutdown reach the drain
            os.kill(worker_pid(service), signal.SIGCONT)
            closer.join(timeout=120)
            assert not closer.is_alive(), "graceful shutdown deadlocked"
            # Shutdown drains: every admitted request was served.
            for future in futures:
                assert future.result(timeout=5).ok
        finally:
            os.kill(worker_pid(service), signal.SIGCONT)
            service.close()

