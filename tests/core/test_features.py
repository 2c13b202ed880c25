"""Tests for the 7-dim feature initialization (Sec. III-C)."""

import hashlib

import numpy as np
import pytest

from repro.core import FEATURE_DIM, FeatureBuilder, RLQVOConfig
from repro.errors import ModelError
from repro.graphs import Graph, GraphStats


@pytest.fixture(scope="module")
def builder_setup():
    # Data graph: labels 0 x3 (degrees 2,2,2), label 1 x1 (degree 0 isolated).
    data = Graph([0, 0, 0, 1], [(0, 1), (1, 2), (0, 2)])
    config = RLQVOConfig()
    stats = GraphStats(data)
    return data, config, stats


class TestStaticFeatures:
    def test_feature_values_match_paper_formulas(self, builder_setup):
        data, config, stats = builder_setup
        builder = FeatureBuilder(data, config, stats)
        # Query: edge between label-0 vertices.
        query = Graph([0, 0], [(0, 1)])
        static = builder.static_features(query)
        assert static.shape == (2, 5)
        nv = data.num_vertices
        for u in range(2):
            assert static[u, 0] == query.degree(u)  # h(1), alpha_degree = 1
            assert static[u, 1] == query.label(u)  # h(2)
            assert static[u, 2] == u  # h(3)
            # h(4): data vertices with degree > d(u)=1 are 0,1,2 -> 3/4
            assert static[u, 3] == pytest.approx(3 / nv)
            # h(5): label-0 frequency 3 -> 3/4
            assert static[u, 4] == pytest.approx(3 / nv)

    def test_static_features_follow_content_not_identity(self, builder_setup):
        # No cache: equal queries give equal (read-only) columns, and a
        # new query that happens to reuse a freed one's address gets its
        # own — nothing is remembered under id(query).
        data, config, stats = builder_setup
        builder = FeatureBuilder(data, config, stats)
        first = builder.static_features(Graph([0, 0], [(0, 1)]))
        again = builder.static_features(Graph([0, 0], [(0, 1)]))
        assert np.array_equal(first, again)
        assert not first.flags.writeable
        assert not any(
            isinstance(value, dict) for value in vars(builder).values()
        )

    def test_random_feature_mode(self, builder_setup):
        data, _, stats = builder_setup
        config = RLQVOConfig(feature_mode="random")
        builder = FeatureBuilder(data, config, stats)
        query = Graph([0, 0], [(0, 1)])
        static = builder.static_features(query)
        assert static.shape == (2, 5)
        assert (0 <= static).all() and (static <= 1).all()
        # Fixed per query: a function of the query's content, not of how
        # many queries the builder saw before it.
        other = Graph([0, 0, 0], [(0, 1), (1, 2)])
        fresh = FeatureBuilder(data, config, stats)
        fresh.static_features(other)
        assert np.array_equal(fresh.static_features(Graph([0, 0], [(0, 1)])), static)
        assert np.array_equal(builder.static_features(query), static)
        assert not np.array_equal(builder.static_features(other)[:2], static)
        # ... and of the model seed.
        reseeded = FeatureBuilder(data, RLQVOConfig(feature_mode="random", seed=1), stats)
        assert not np.array_equal(reseeded.static_features(query), static)


def static_features_per_vertex(builder: FeatureBuilder, query: Graph) -> np.ndarray:
    """``static_features`` as it was before its heuristic columns went
    column-wise: one rank query and one label lookup per vertex.  The
    oracle — the columns must be the same doubles.  (``"random"`` never
    had a loop; its branch is here so both modes are held to one body.)"""
    cfg, stats = builder.config, builder.stats
    n = query.num_vertices
    if cfg.feature_mode == "random":
        digest = hashlib.blake2b(
            b"".join(a.tobytes() for a in (query.labels, *query.csr)), digest_size=8
        ).digest()
        seed = [cfg.seed + 7919, int.from_bytes(digest, "little")]
        return np.random.default_rng(seed).random((n, 5))
    out = np.zeros((n, 5))
    nv = max(builder.data.num_vertices, 1)
    for u in range(n):
        deg = query.degree(u)
        out[u, 0] = deg
        out[u, 1] = query.label(u)
        out[u, 2] = u
        out[u, 3] = stats.count_degree_greater(deg) / nv
        out[u, 4] = stats.label_frequency(query.label(u)) / nv
    return out


@pytest.mark.parametrize(
    "settings",
    [
        {},
        {"feature_mode": "random", "seed": 3},
        {"feature_mode": "random"},
    ],
)
def test_static_columns_equal_the_per_vertex_loop(
    data_graph, data_stats, queries, settings
):
    builder = FeatureBuilder(data_graph, RLQVOConfig(**settings), data_stats)
    unseen = int(data_graph.labels.max()) + 1  # a label G does not carry
    lone = Graph([unseen, 0, 0], [(1, 2)])  # ... on an isolated vertex
    for query in [*queries, lone, Graph([], [])]:
        static = builder.static_features(query)
        assert np.array_equal(static, static_features_per_vertex(builder, query))
        assert static.dtype == np.float64 and not static.flags.writeable


class TestStepFeatures:
    def test_out_buffer_is_rewritten_in_place(self, builder_setup):
        data, config, stats = builder_setup
        builder = FeatureBuilder(data, config, stats)
        query = Graph([0, 0, 0], [(0, 1), (1, 2)])
        static = builder.static_features(query)
        first = builder.step_features(query, static, 0, np.zeros(3, dtype=bool))
        ordered = np.array([False, True, False])
        again = builder.step_features(query, static, 1, ordered, out=first)
        assert again is first
        assert np.array_equal(again, builder.step_features(query, static, 1, ordered))

    def test_dynamic_columns(self, builder_setup):
        data, config, stats = builder_setup
        builder = FeatureBuilder(data, config, stats)
        query = Graph([0, 0, 0], [(0, 1), (1, 2)])
        static = builder.static_features(query)
        ordered = np.array([True, False, False])
        full = builder.step_features(query, static, 1, ordered)
        assert full.shape == (3, FEATURE_DIM)
        assert (full[:, 5] == 2).all()  # |V(q)| - t + 1 = 3 - 2 + 1
        assert full[:, 6].tolist() == [1.0, 0.0, 0.0]

    def test_static_block_passthrough(self, builder_setup):
        data, config, stats = builder_setup
        builder = FeatureBuilder(data, config, stats)
        query = Graph([0, 0], [(0, 1)])
        static = builder.static_features(query)
        full = builder.step_features(query, static, 0, np.zeros(2, dtype=bool))
        assert np.array_equal(full[:, :5], static)

    def test_shape_mismatch_rejected(self, builder_setup):
        data, config, stats = builder_setup
        builder = FeatureBuilder(data, config, stats)
        query = Graph([0, 0], [(0, 1)])
        with pytest.raises(ModelError):
            builder.step_features(query, np.zeros((3, 5)), 0, np.zeros(2, dtype=bool))


def test_stats_mismatch_rejected():
    data = Graph([0, 0], [(0, 1)])
    other = Graph([0, 0, 0], [(0, 1)])
    with pytest.raises(ModelError):
        FeatureBuilder(data, RLQVOConfig(), GraphStats(other))
