"""Tests for the candidate filters — above all *completeness*.

A filter is complete when every data vertex participating in a true
embedding survives in the corresponding candidate set (Def. II.2).  The
oracle embeddings come from networkx monomorphism search.
"""

import networkx as nx
import numpy as np
import pytest

from repro.errors import FilterError
from repro.graphs import Graph, GraphStats, erdos_renyi, extract_query
from repro.matching import (
    CFLFilter,
    DPisoFilter,
    FILTERS,
    GQLFilter,
    LDFFilter,
    NLFFilter,
)

ALL_FILTERS = [LDFFilter, NLFFilter, GQLFilter, CFLFilter, DPisoFilter]


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
        for filter_cls in (NLFFilter, GQLFilter, CFLFilter, DPisoFilter):
            stronger = filter_cls().filter(query, data, stats)
            for u in query.vertices():
                assert stronger.get(u) <= ldf.get(u)

    def test_gql_at_least_as_tight_as_nlf(self, small_instance):
        query, data, stats = small_instance
        nlf = NLFFilter().filter(query, data, stats)
        gql = GQLFilter().filter(query, data, stats)
        assert gql.total_size() <= nlf.total_size()

    def test_label_degree_semantics_of_ldf(self, small_instance):
        query, data, stats = small_instance
        candidates = LDFFilter().filter(query, data, stats)
        for u in query.vertices():
            for v in candidates.get(u):
                assert data.label(v) == query.label(u)
                assert data.degree(v) >= query.degree(u)

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
        sizes = candidates.sizes()
        assert candidates.total_size() == sum(sizes)
        u = 0
        assert candidates.size(u) == len(candidates.get(u))
        assert list(candidates.array(u)) == sorted(candidates.get(u))

    def test_stats_graph_mismatch_rejected(self, small_instance):
        query, data, _ = small_instance
        wrong_stats = GraphStats(erdos_renyi(10, 15, 2, seed=1))
        with pytest.raises(FilterError):
            GQLFilter().filter(query, data, wrong_stats)


def test_registry_contains_all_filters():
    assert set(FILTERS) == {"ldf", "nlf", "gql", "cfl", "dpiso"}
