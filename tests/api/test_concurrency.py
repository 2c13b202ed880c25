"""Thread-safety contract of a shared :class:`Matcher`.

``MatchService.submit_many`` fans requests out over a thread pool that
hammers one matcher per dataset.  This suite documents and pins the
contract that makes that sound: concurrent full ``match`` calls and
capped ``match_limit=4`` executions (one shared engine, the way the
service applies per-request limits to shared plans) on one shared
matcher are bit-identical to the same calls run serially — match
sequences, ``#enum``, orders, flags, everything.
"""

import threading

import numpy as np
import pytest

from repro.api import Matcher
from repro.graphs import erdos_renyi, extract_query
from repro.graphs.canonical import canonical_form
from repro.matching import Enumerator
from repro.service import PlanCache

N_THREADS = 8
ROUNDS = 3

#: The capped leg's engine, shared by every thread: the first four
#: embeddings of a query, recorded.
FIRST_FOUR = Enumerator(match_limit=4, record_matches=True, time_limit=None)


@pytest.fixture(scope="module", params=[3, 96], ids=["3-labels", "96-labels"])
def data(request):
    # 96 labels: every gql plan reads the shared GraphStats label-neighbour
    # index, and more labels than the 64-entry count cache it replaced
    # could hold without evicting under another thread's read.
    return erdos_renyi(180, 620, request.param, seed=31)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(11)
    return [extract_query(data, 5, rng) for _ in range(6)]


def run_workload(matcher, queries, thread_id, plan=None):
    """Interleave full matches and capped first-four runs over the queries.

    ``plan`` (``query -> QueryPlan``) plans in place of ``matcher.plan``.
    """
    results = []
    for round_no in range(ROUNDS):
        for i, query in enumerate(queries):
            if (i + round_no + thread_id) % 2 == 0:
                kind = "match"
                result = (
                    matcher.match(query) if plan is None
                    else matcher.execute(plan(query))
                )
            else:
                kind = "first-four"
                planned = matcher.plan(query) if plan is None else plan(query)
                result = matcher.execute(planned, FIRST_FOUR)
            results.append(
                (
                    kind,
                    i,
                    result.enumeration.matches,
                    result.num_matches,
                    result.num_enumerations,
                    result.enumeration.limit_reached,
                    tuple(result.order),
                )
            )
    return results


class TestSharedMatcherConcurrency:
    def test_hammered_matcher_bit_identical_to_serial(self, data, queries):
        matcher = Matcher(data, record_matches=True, time_limit=None)
        # The serial reference: each thread's workload, run one by one.
        expected = {
            tid: run_workload(matcher, queries, tid) for tid in range(N_THREADS)
        }

        outputs = {}
        errors = []
        barrier = threading.Barrier(N_THREADS)

        def worker(tid):
            try:
                barrier.wait()  # maximize interleaving
                outputs[tid] = run_workload(matcher, queries, tid)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append((tid, exc))

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        for tid in range(N_THREADS):
            assert outputs[tid] == expected[tid], f"thread {tid} diverged"

    def test_hammered_cached_matcher_stays_bit_identical(self, data, queries):
        # Same contract with the plan cache in the loop: concurrent
        # lookups, insertions and shared cached contexts, planned the
        # way the service plans — canonical forms, explicit scope.
        matcher = Matcher(
            data, record_matches=True, time_limit=None,
            plan_cache=PlanCache(max_bytes=1 << 22), cache_scope="d",
        )
        forms = [canonical_form(q) for q in queries]
        queries = [cform.graph for cform in forms]
        fingerprints = {id(cform.graph): cform.fingerprint for cform in forms}

        def plan(query):
            return matcher.plan_fingerprinted(query, fingerprints[id(query)])[0]

        expected = run_workload(matcher, queries, 0, plan)

        outputs = {}
        barrier = threading.Barrier(N_THREADS)

        def worker(tid):
            barrier.wait()
            outputs[tid] = run_workload(matcher, queries, 0, plan)

        threads = [
            threading.Thread(target=worker, args=(tid,))
            for tid in range(N_THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for tid in range(N_THREADS):
            assert outputs[tid] == expected
        assert matcher.plan_cache.stats().hits > 0
