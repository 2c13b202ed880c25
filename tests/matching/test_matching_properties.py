"""Property-based tests for the matching substrate.

Key invariants:
* every filter is complete w.r.t. true embeddings,
* the match *set* is independent of the order and the filter,
* stronger filters never increase #enum for the same order.
"""

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import Graph
from repro.matching import (
    DPisoFilter,
    Enumerator,
    GQLFilter,
    LDFFilter,
    NLFFilter,
    RandomOrderer,
    RIOrderer,
)


@st.composite
def matching_instances(draw):
    """A (query, data) pair where the query is a connected subgraph shape."""
    n_data = draw(st.integers(8, 26))
    labels = draw(st.lists(st.integers(0, 2), min_size=n_data, max_size=n_data))
    possible = [(u, v) for u in range(n_data) for v in range(u + 1, n_data)]
    edges = draw(st.lists(st.sampled_from(possible), min_size=n_data, max_size=3 * n_data))
    data = Graph(labels, edges)

    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    size = draw(st.integers(2, 4))
    from repro.errors import DatasetError
    from repro.graphs import extract_query

    try:
        query = extract_query(data, size, rng, max_attempts=30)
    except DatasetError:
        query = Graph([labels[0]], [])
    return query, data


def to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    for v in g.vertices():
        out.add_node(v, label=g.label(v))
    out.add_edges_from(g.edges())
    return out


@given(matching_instances())
@settings(max_examples=20)
def test_filters_complete_and_orders_agree(instance):
    query, data = instance
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        to_nx(data), to_nx(query),
        node_match=lambda a, b: a["label"] == b["label"],
    )
    oracle = {
        tuple(
            {qv: dv for dv, qv in m.items()}[u] for u in query.vertices()
        )
        for m in matcher.subgraph_monomorphisms_iter()
    }

    enumerator = Enumerator(match_limit=None, record_matches=True)
    for filter_cls in (LDFFilter, NLFFilter, GQLFilter, DPisoFilter):
        candidates = filter_cls().filter(query, data)
        # Completeness
        for match in oracle:
            for u, v in enumerate(match):
                assert candidates.contains(u, v)
        # Exactness of the enumeration under two different orders
        for orderer in (RIOrderer(), RandomOrderer(seed=0)):
            order = orderer.order(query, data, candidates)
            result = enumerator.run(query, data, candidates, order)
            assert set(result.matches) == oracle


@given(matching_instances())
@settings(max_examples=15)
def test_stronger_filters_never_increase_enum(instance):
    query, data = instance
    enumerator = Enumerator(match_limit=None)
    order_source = RIOrderer()
    ldf = LDFFilter().filter(query, data)
    gql = GQLFilter().filter(query, data)
    order = order_source.order(query, data, ldf)
    enum_ldf = enumerator.run(query, data, ldf, order).num_enumerations
    enum_gql = enumerator.run(query, data, gql, order).num_enumerations
    assert enum_gql <= enum_ldf
