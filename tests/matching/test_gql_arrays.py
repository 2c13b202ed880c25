"""The array-native GQL filter against the set-based oracle.

``tests/gql_set_oracle.py`` is the per-candidate filter the production
``GQLFilter`` replaced.  The two must return equal candidate arrays for
every query vertex — also under a truncated ``refinement_rounds``, which
pins the sweep schedule, and on instances with few labels, where query
neighbours share labels and the counting shortcut leaves pairs for
Hopcroft–Karp to decide.
"""

import numpy as np
import pytest
from gql_set_oracle import GQLSetOracle, closed_profile
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import DATASETS, dataset_stats, load_dataset, query_workload
from repro.graphs import Graph, GraphStats, erdos_renyi, generate_query_set
from repro.matching import GQLFilter
from repro.matching.bipartite import has_semi_perfect_matching
from repro.matching.filters import gql as gql_module
from repro.matching.filters.gql import counts_guarantee_matching


def assert_same_candidates(query, data, stats=None, rounds=3):
    got = GQLFilter(rounds).filter(query, data, stats)
    want = GQLSetOracle(rounds).filter(query, data)
    assert got.num_query_vertices == want.num_query_vertices
    for u in query.vertices():
        assert np.array_equal(got.array(u), want.array(u)), (u, rounds)
        assert got.array(u).dtype == np.int64


@st.composite
def few_label_instances(draw):
    """Two or three labels; the query is any small graph, not a sample.

    An arbitrary query (rather than an extracted one) reaches what a
    sampled one cannot: isolated vertices, a single vertex, components,
    and neighbourhoods the data graph cannot host.
    """
    num_labels = draw(st.integers(2, 3))
    n_data = draw(st.integers(6, 24))
    label = st.integers(0, num_labels - 1)
    data_labels = draw(st.lists(label, min_size=n_data, max_size=n_data))
    pairs = [(u, v) for u in range(n_data) for v in range(u + 1, n_data)]
    data_edges = draw(st.lists(st.sampled_from(pairs), max_size=4 * n_data))
    n_query = draw(st.integers(1, 6))
    query_labels = draw(st.lists(label, min_size=n_query, max_size=n_query))
    query_pairs = [(u, v) for u in range(n_query) for v in range(u + 1, n_query)]
    query_edges = (
        draw(st.lists(st.sampled_from(query_pairs), max_size=2 * n_query))
        if query_pairs
        else []
    )
    return Graph(query_labels, query_edges), Graph(data_labels, data_edges)


@given(few_label_instances(), st.sampled_from([0, 1, 3]))
@settings(max_examples=150)
def test_equal_to_oracle_on_few_label_instances(instance, rounds):
    query, data = instance
    assert_same_candidates(query, data, rounds=rounds)


@pytest.fixture(scope="module")
def sparse_few_labels() -> Graph:
    """3 labels at average degree 4: same-label query neighbours whose
    candidate neighbourhoods overlap, so counting leaves a residue (42
    Hopcroft–Karp calls over the eight Q8 queries below, 30 of them
    keeping the candidate and 12 dropping it)."""
    return erdos_renyi(80, 160, 3, seed=3)


@pytest.mark.parametrize("rounds", [0, 1, 3])
def test_equal_to_oracle_on_sampled_queries(sparse_few_labels, dense_graph, rounds):
    for data in (sparse_few_labels, dense_graph):
        stats = GraphStats(data)
        for query in generate_query_set(data, 8, 8, seed=2):
            assert_same_candidates(query, data, stats, rounds)


@pytest.mark.parametrize(
    "query",
    [
        Graph([1], []),
        Graph([0, 1, 0], []),
        Graph([0, 1, 2], [(0, 1)]),
        Graph([7, 0], [(0, 1)]),
        Graph([0, 7, 0], [(0, 1), (1, 2)]),
    ],
    ids=["single", "all-isolated", "one-isolated", "impossible-leaf", "impossible-hub"],
)
def test_degenerate_queries(query):
    data = erdos_renyi(40, 120, 3, seed=4)
    for rounds in (0, 1, 3):
        assert_same_candidates(query, data, rounds=rounds)
    if 7 in query.labels:
        assert GQLFilter().filter(query, data).has_empty()


def test_empty_data_graph():
    assert_same_candidates(Graph([0, 0], [(0, 1)]), Graph([], []))
    assert_same_candidates(Graph([0, 0], [(0, 1)]), Graph([0, 0, 1], []))


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_equal_to_oracle_on_bundled_pools(dataset):
    data, stats = load_dataset(dataset), dataset_stats(dataset)
    for size in DATASETS[dataset].query_sizes[-2:]:
        for query in query_workload(dataset, size, count=3, data=data).all_queries:
            assert_same_candidates(query, data, stats)


def test_hopcroft_karp_sees_only_undecided_pairs(sparse_few_labels, monkeypatch):
    calls, verdicts = [], []

    def spy(adjacency, num_right):
        calls.append(adjacency)
        verdicts.append(has_semi_perfect_matching(adjacency, num_right))
        return verdicts[-1]

    monkeypatch.setattr(gql_module, "has_semi_perfect_matching", spy)
    stats = GraphStats(sparse_few_labels)
    pairs = 0
    for query in generate_query_set(sparse_few_labels, 8, 8, seed=2):
        pairs += sum(GQLFilter().filter(query, sparse_few_labels, stats).sizes())
    assert 0 < len(calls) < pairs // 10
    assert True in verdicts and False in verdicts
    for adjacency in calls:
        # A zero count is a verdict, and so is a single query neighbour.
        assert len(adjacency) > 1 and all(adjacency)


@given(
    st.integers(1, 5).flatmap(
        lambda left: st.lists(
            st.lists(
                st.sets(st.integers(0, 6)).map(sorted), min_size=left, max_size=left
            ),
            min_size=1,
            max_size=8,
        )
    )
)
@settings(max_examples=200)
def test_counting_shortcut_never_contradicts_hopcroft_karp(instances):
    # Each instance: `left` query neighbours, 7 data neighbours, one
    # adjacency row per query neighbour.
    counts = np.array([[len(row) for row in adjacency] for adjacency in instances]).T
    guaranteed = counts_guarantee_matching(counts)
    for j, adjacency in enumerate(instances):
        if guaranteed[j]:
            assert has_semi_perfect_matching(adjacency, 7)
        if 0 in counts[:, j]:
            assert not guaranteed[j]
    if counts.shape[0] == 1:
        assert np.array_equal(guaranteed, counts[0] > 0)


def test_oracle_profile_is_the_closed_neighbourhood_label_multiset():
    #    0(a) - 1(b) - 2(a)
    #      \   /
    #       3(c)
    small = Graph([0, 1, 0, 2], [(0, 1), (1, 2), (0, 3), (1, 3)])
    assert closed_profile(small, 0) == (0, 1, 2)  # own a + nbrs {b, c}
    assert closed_profile(small, 1) == (0, 0, 1, 2)
