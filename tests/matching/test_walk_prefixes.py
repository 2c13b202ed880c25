"""The one DFS, pinned at every ``stop``: ``walk_prefixes`` vs the oracle.

Both strategies are consumers of :func:`walk_prefixes` — ``"iterative"``
at ``stop = n``, ``"vectorized"`` at ``stop = max(n - 3, 0)`` — so the
engine suites only ever exercise two cut points, and only indirectly.
Here the walk is driven directly: binding the first ``stop`` positions
of an order must enumerate exactly the embeddings of the query *induced
by those positions*, in the recursive oracle's sequence and at its
``#enum``; and the counter side-channel must carry a consumer's charges
and its stop request without ever re-charging or un-charging a step.
"""

import numpy as np
import pytest
from recursive_oracle import RecursiveOracle

from repro.graphs import erdos_renyi, extract_query
from repro.matching import CandidateSets, Enumerator, GQLFilter, MatchingContext
from repro.matching.enumeration_iter import (
    EnumerationCounters,
    _bind_depths,
    walk_prefixes,
)


def _instance(seed: int):
    """A random instance under a random (not necessarily connected)
    order, so depths without backward neighbours are walked too."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(12, 40))
    m, labels = int(rng.integers(n, 3 * n)), int(rng.integers(1, 4))
    data = erdos_renyi(n, m, labels, seed=seed)
    query = extract_query(data, int(rng.integers(2, 7)), rng)
    candidates = GQLFilter().filter(query, data)
    order = [int(u) for u in rng.permutation(query.num_vertices)]
    return query, data, candidates, order


def _start(instance, stop):
    query, data, candidates, order = instance
    context = MatchingContext(query, data, candidates)
    order, backward = Enumerator._prepare_order(context, order)
    search = _bind_depths(context, order, backward)
    counters = EnumerationCounters()
    walk = walk_prefixes(search, backward, None, 2048, counters, stop)
    return search, counters, walk


def _oracle_on_prefix(instance, stop):
    """The oracle on the query induced by ``order[:stop]`` (vertex ``p``
    of the induced query is position ``p``), same candidate sets."""
    query, data, candidates, order = instance
    induced, _ = query.induced_subgraph(order[:stop])
    sets = CandidateSets([sorted(candidates.get(u)) for u in order[:stop]])
    oracle = RecursiveOracle(match_limit=None, record_matches=True)
    return oracle.run(induced, data, sets, list(range(stop)))


@pytest.mark.parametrize("seed", range(12))
def test_every_stop_agrees_with_the_oracle_on_the_induced_prefix(seed):
    instance = _instance(seed)
    n = instance[0].num_vertices
    for stop in range(n + 1):
        search, counters, walk = _start(instance, stop)
        prefixes = []
        for _ in walk:
            prefixes.append(tuple(search.images[:stop]))
            if stop < n:
                # Levels below the prefix are shielded from all of it.
                marked = set(np.flatnonzero(search.used).tolist())
                assert marked == set(search.images[:stop])
        expected = _oracle_on_prefix(instance, stop)
        assert tuple(prefixes) == expected.matches, stop
        assert counters.num_enumerations == expected.num_enumerations, stop
        assert not counters.timed_out
        assert not search.used.any(), stop


@pytest.mark.parametrize("seed", range(0, 12, 3))
def test_consumer_charges_ride_the_counters(seed):
    # Steps a consumer takes below each prefix are added to the running
    # count and survive to the end of the walk.
    instance = _instance(seed)
    stop = max(instance[0].num_vertices - 3, 0)
    expected = _oracle_on_prefix(instance, stop)
    _, counters, walk = _start(instance, stop)
    for _ in walk:
        counters.num_enumerations += 5
    assert counters.num_enumerations == (
        expected.num_enumerations + 5 * expected.num_matches
    )


def _instance_with_prefixes(stop_from_n, at_least=3):
    for seed in range(50):
        instance = _instance(seed)
        stop = instance[0].num_vertices + stop_from_n
        if stop >= 1 and _oracle_on_prefix(instance, stop).num_matches >= at_least:
            return instance, stop
    raise AssertionError("no seeded instance has enough prefixes")


def test_timed_out_consumer_stops_the_walk_without_recharging():
    instance, stop = _instance_with_prefixes(-1)
    _, counters, walk = _start(instance, stop)
    next(walk)
    charged = counters.num_enumerations
    counters.timed_out = True
    assert next(walk, "done") == "done"
    assert counters.num_enumerations == charged


@pytest.mark.parametrize("consumer_steps", [0, 7])
def test_close_mid_walk_leaves_the_last_charged_step(consumer_steps):
    instance, stop = _instance_with_prefixes(0)
    _, counters, walk = _start(instance, stop)
    next(walk)
    next(walk)
    counters.num_enumerations += consumer_steps
    charged = counters.num_enumerations
    walk.close()
    assert counters.num_enumerations == charged
    assert not counters.timed_out


@pytest.mark.parametrize("strategy", ["iterative", "vectorized"])
@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_expired_deadline_is_reported_at_the_root(strategy, n):
    data = erdos_renyi(40, 500, 1, seed=0)
    query = extract_query(data, n, np.random.default_rng(0))
    candidates = GQLFilter().filter(query, data)
    result = Enumerator(
        strategy=strategy, match_limit=None, time_limit=1e-9, check_every=1
    ).run(query, data, candidates, list(range(n)))
    assert result.timed_out
    assert (result.num_matches, result.num_enumerations) == (0, 1)
