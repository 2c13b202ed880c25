"""Tests for the candidate filters — above all *completeness*.

A filter is complete when every data vertex participating in a true
embedding survives in the corresponding candidate set (Def. II.2).  The
oracle embeddings come from networkx monomorphism search.  LDF and NLF
are also held to their definitions exactly, set by set.
"""

from collections import Counter

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FilterError
from repro.graphs import Graph, GraphStats, chung_lu, erdos_renyi, extract_query
from repro.matching import (
    CandidateSets,
    DPisoFilter,
    FILTERS,
    GQLFilter,
    LDFFilter,
    NLFFilter,
)

ALL_FILTERS = [LDFFilter, NLFFilter, GQLFilter, DPisoFilter]


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    for v in g.vertices():
        out.add_node(v, label=g.label(v))
    out.add_edges_from(g.edges())
    return out


def oracle_embeddings(query: Graph, data: Graph) -> list[dict[int, int]]:
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        to_nx(data),
        to_nx(query),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    # networkx maps data->query; invert to query->data.
    return [
        {qv: dv for dv, qv in mapping.items()}
        for mapping in matcher.subgraph_monomorphisms_iter()
    ]


@pytest.fixture(scope="module")
def small_instance():
    data = erdos_renyi(40, 90, 3, seed=13)
    rng = np.random.default_rng(5)
    query = extract_query(data, 4, rng)
    return query, data, GraphStats(data)


def ldf_by_definition(query: Graph, data: Graph) -> list[list[int]]:
    """``C(u) = {v : L(v) = L(u) and d(v) >= d(u)}``, vertex by vertex."""
    return [
        [
            v
            for v in data.vertices()
            if data.label(v) == query.label(u) and data.degree(v) >= query.degree(u)
        ]
        for u in query.vertices()
    ]


def nlf_by_definition(query: Graph, data: Graph) -> list[list[int]]:
    """LDF's sets, kept where ``v``'s neighbour-label multiset dominates
    ``u``'s: at least as many ``l``-labelled neighbours for every ``l``."""
    sets = []
    for u, ldf in zip(query.vertices(), ldf_by_definition(query, data)):
        need = Counter(query.neighbor_labels(u))
        sets.append([v for v in ldf if not need - Counter(data.neighbor_labels(v))])
    return sets


def as_lists(candidates: CandidateSets) -> list[list[int]]:
    return [candidates.array(u).tolist() for u in range(candidates.num_query_vertices)]


@pytest.fixture(scope="module")
def definition_instances(small_instance):
    """Queries on a skewed power-law graph (where NLF prunes beyond LDF)
    and the small uniform instance."""
    data = chung_lu(600, 8.0, 6, seed=11)
    rng = np.random.default_rng(17)
    query, small, _ = small_instance
    return [(extract_query(data, 8, rng), data) for _ in range(4)] + [(query, small)]


class TestCompleteness:
    @pytest.mark.parametrize("filter_cls", ALL_FILTERS)
    def test_every_embedding_survives(self, filter_cls, small_instance):
        query, data, stats = small_instance
        candidates = filter_cls().filter(query, data, stats)
        embeddings = oracle_embeddings(query, data)
        assert embeddings, "fixture should have at least one embedding"
        for emb in embeddings:
            for u, v in emb.items():
                assert candidates.contains(u, v), (
                    f"{filter_cls.name} dropped true candidate ({u} -> {v})"
                )

    @pytest.mark.parametrize("filter_cls", ALL_FILTERS)
    def test_completeness_across_seeds(self, filter_cls):
        for seed in range(4):
            data = erdos_renyi(30, 70, 2, seed=seed)
            rng = np.random.default_rng(seed)
            query = extract_query(data, 3, rng)
            candidates = filter_cls().filter(query, data)
            for emb in oracle_embeddings(query, data):
                assert all(candidates.contains(u, v) for u, v in emb.items())


class TestPruningPower:
    def test_stronger_filters_are_subsets_of_ldf(self, small_instance):
        query, data, stats = small_instance
        ldf = LDFFilter().filter(query, data, stats)
        for filter_cls in (NLFFilter, GQLFilter, DPisoFilter):
            stronger = filter_cls().filter(query, data, stats)
            for u in query.vertices():
                assert stronger.get(u) <= ldf.get(u)

    def test_gql_at_least_as_tight_as_nlf(self, small_instance):
        query, data, stats = small_instance
        nlf = NLFFilter().filter(query, data, stats)
        gql = GQLFilter().filter(query, data, stats)
        assert sum(gql.sizes()) <= sum(nlf.sizes())

    def test_label_degree_semantics_of_ldf(self, definition_instances):
        for query, data in definition_instances:
            got = LDFFilter().filter(query, data)
            assert as_lists(got) == ldf_by_definition(query, data)

    def test_neighbor_label_semantics_of_nlf(self, definition_instances):
        pruned_beyond_ldf = False
        for query, data in definition_instances:
            got = NLFFilter().filter(query, data, GraphStats(data))
            expected = nlf_by_definition(query, data)
            assert as_lists(got) == expected
            pruned_beyond_ldf |= expected != ldf_by_definition(query, data)
        # The neighbour-label rule must bind somewhere, or this test
        # could not tell NLF from LDF.
        assert pruned_beyond_ldf

    def test_impossible_label_yields_empty_set(self, small_instance):
        _, data, stats = small_instance
        query = Graph([99], [])  # label absent from the data graph
        for filter_cls in ALL_FILTERS:
            candidates = filter_cls().filter(query, data, stats)
            assert candidates.has_empty()


class TestCandidateSets:
    def test_container_api(self, small_instance):
        query, data, stats = small_instance
        candidates = GQLFilter().filter(query, data, stats)
        assert candidates.num_query_vertices == query.num_vertices
        u = 0
        assert candidates.size(u) == len(candidates.get(u))
        assert list(candidates.array(u)) == sorted(candidates.get(u))

    def test_stats_graph_mismatch_rejected(self, small_instance):
        query, data, _ = small_instance
        wrong_stats = GraphStats(erdos_renyi(10, 15, 2, seed=1))
        with pytest.raises(FilterError):
            GQLFilter().filter(query, data, wrong_stats)

    #: Each input kind the constructor accepts, built from a list.
    KINDS = {
        "ndarray": lambda s: np.array(s, dtype=np.int64),
        "list": list,
        "generator": lambda s: (v for v in s),
    }

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 60), max_size=40), max_size=5))
    def test_sets_are_sorted_and_deduplicated(self, kind, sets):
        # Duplicates, unsorted input and empty sets all come out as
        # sorted(set(s)): one read-only int64 array per query vertex.
        candidates = CandidateSets([self.KINDS[kind](s) for s in sets])
        assert candidates.num_query_vertices == len(sets)
        for u, s in enumerate(sets):
            arr = candidates.array(u)
            assert arr.dtype == np.int64 and not arr.flags.writeable
            assert arr.tolist() == sorted(set(s))

    def test_construction_calls_no_np_unique(self, monkeypatch):
        # np.unique is a hash table on numpy 2.4 (~10 ms on its first
        # call in a process); the sets are de-duplicated with a sort.
        calls = []
        unique = np.unique

        def spy(*args, **kwargs):
            calls.append(args)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", spy)
        candidates = CandidateSets([np.array([3, 1, 3]), [2, 2, 0], iter([5])])
        assert [candidates.array(u).tolist() for u in range(3)] == [[1, 3], [0, 2], [5]]
        assert calls == []


def test_registry_contains_all_filters():
    assert set(FILTERS) == {"ldf", "nlf", "gql", "dpiso"}
