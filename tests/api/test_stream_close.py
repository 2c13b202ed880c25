"""Regression tests: MatchStream counters stay fresh across early close.

The :class:`~repro.matching.enumeration.MatchStream` docstring promises
live counters after every yield *and* after ``close()``.  Two windows
used to violate it: a stream closed before its first pull had never run
the generator body at all (so ``num_enumerations`` stayed 0, an
accounting no batch run can produce), and the generator only refreshed
counters on its yield/return paths rather than on every exit.  The lazy
driver now refreshes via ``try/finally`` and the stream pre-charges the
root step at creation; these tests pin both.
"""

import numpy as np

from repro import Matcher
from repro.graphs import Graph, erdos_renyi, extract_query


def _instance(seed: int = 0):
    rng = np.random.default_rng(seed)
    data = erdos_renyi(60, 180, 3, seed=seed)
    query = extract_query(data, 5, rng)
    return data, query


class TestEarlyClose:
    def test_close_before_first_pull_reports_root_step(self):
        data, query = _instance()
        matcher = Matcher(data, filter="gql", orderer="ri")
        stream = matcher.stream(query)
        stream.close()
        # The root "call" is charged at stream creation, exactly as the
        # batch engine charges it before its first extension attempt.
        assert stream.num_enumerations == 1
        assert stream.num_matches == 0
        assert stream.exhausted
        result = stream.result()
        assert result.num_enumerations == 1
        assert result.num_matches == 0
        assert not result.timed_out and not result.limit_reached

    def test_close_between_pulls_matches_batch_accounting(self):
        data, query = _instance(3)
        matcher = Matcher(data, filter="gql", orderer="ri", match_limit=None)
        oracle = Matcher(data, filter="gql", orderer="ri", match_limit=2).match(
            query
        )
        assert oracle.num_matches >= 2, "fixture must have at least two matches"
        stream = matcher.stream(query, limit=None)
        next(stream)
        next(stream)
        stream.close()
        # #enum after pulling k then closing == a batch run at match_limit=k.
        assert stream.num_enumerations == oracle.num_enumerations
        assert stream.num_matches == 2
        assert stream.exhausted

    def test_counters_after_exhaustion_unchanged_by_close(self):
        data, query = _instance(7)
        matcher = Matcher(data, filter="gql", orderer="ri", match_limit=None)
        stream = matcher.stream(query, limit=None)
        matches = list(stream)
        after_exhaustion = stream.num_enumerations
        stream.close()
        assert stream.num_enumerations == after_exhaustion
        assert stream.num_matches == len(matches)

    def test_unmatchable_query_stream_still_reports_zero(self):
        # Empty candidate sets short-circuit before any search exists;
        # the batch engine reports 0 enumerations there, so must we.
        data = Graph([0, 0, 0], [(0, 1), (1, 2)])
        query = Graph([5, 5], [(0, 1)])  # label absent from data
        matcher = Matcher(data, filter="gql", orderer="ri")
        stream = matcher.stream(query)
        stream.close()
        assert stream.num_enumerations == 0
        assert stream.result().num_matches == 0
