"""Σ matches and Σ ``#enum`` of GQL + RI on four bundled datasets, pinned.

``#enum`` (Def. II.6) is the paper's measure of order quality, and a
count can be pinned exactly: the facade plans the seed-0 Q8 evaluation
queries of citeseer, yeast, dblp and youtube with GQL + RI and runs each
to a 100,000-match cap with no deadline, so no clock decides a count.
A change to the filter, the orderer (its tie-break included), the
candidate space or the search that alters what is explored moves these
numbers; one that only makes the same search faster leaves them alone.
"""

import pytest

from repro.api import Matcher
from repro.datasets import load_dataset, query_workload

#: dataset -> (workload size, then: evaluation queries, Σ matches, Σ #enum).
PINNED = {
    "citeseer": (16, (8, 558_599, 747_482)),
    "yeast": (16, (8, 100_577, 157_659)),
    "dblp": (12, (6, 530_879, 614_494)),
    "youtube": (12, (6, 449_141, 586_018)),
}


@pytest.mark.parametrize("dataset", sorted(PINNED))
def test_gql_ri_counts_are_pinned(dataset):
    count, expected = PINNED[dataset]
    data = load_dataset(dataset)
    matcher = Matcher(
        data, filter="gql", orderer="ri", match_limit=100_000, time_limit=None
    )
    queries = query_workload(dataset, size=8, count=count, data=data).eval
    results = [matcher.execute(matcher.plan(q)) for q in queries]
    assert (
        len(queries),
        sum(r.num_matches for r in results),
        sum(r.num_enumerations for r in results),
    ) == expected
