"""Sharded matching vs the single-shard oracle: set, sequence, ``#enum``.

The acceptance bar for partitioned matching is *observational
equivalence*: for any data graph (connected or not), any shard count and
both balancing modes, the sharded pipeline must reproduce the unsharded
engine's exact match sequence — not just the same set — including under
``match_limit`` truncation and through the streaming surface.  On top of
that, each shard's context must preserve the repo's core invariant that
the iterative engine and the recursive oracle agree bit-identically on
``#enum``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from recursive_oracle import RecursiveOracle

from repro import Matcher
from repro.graphs import Graph, ShardedGraph, erdos_renyi, extract_query
from repro.graphs.partition import PARTITION_MODES, query_eccentricity
from repro.graphs.stats import GraphStats
from repro.matching import Enumerator, GQLFilter, RIOrderer
from repro.matching.sharded import (
    build_shard_runs,
    candidate_union_mask,
    merge_shard_matches,
    remap_matches,
)


def _random_instance(seed: int, disconnect: bool = False):
    """A small data graph (optionally two disconnected halves) + query."""
    rng = np.random.default_rng(seed)
    data = erdos_renyi(50, 140, 3, seed=seed)
    if disconnect:
        # Stack two independent components: ids of the second block are
        # shifted, so ownership ranges straddle the component boundary.
        other = erdos_renyi(30, 80, 3, seed=seed + 1)
        n = data.num_vertices
        edges = list(data.edges()) + [(u + n, v + n) for (u, v) in other.edges()]
        labels = np.concatenate([data.labels, other.labels])
        data = Graph(labels, edges)
    query = extract_query(data, int(rng.integers(3, 6)), rng)
    return data, query


def _matcher(data, **kwargs):
    kwargs.setdefault("match_limit", None)
    return Matcher(data, filter="gql", orderer="ri", record_matches=True, **kwargs)


# ----------------------------------------------------------------------
# End-to-end equivalence with the unsharded oracle
# ----------------------------------------------------------------------
@settings(max_examples=15)
@given(
    st.integers(0, 10_000),
    st.sampled_from([1, 2, 4]),
    st.sampled_from(PARTITION_MODES),
    st.booleans(),
)
def test_sharded_matches_equal_unsharded_oracle(seed, shards, mode, disconnect):
    data, query = _random_instance(seed, disconnect)
    oracle = _matcher(data).match(query)
    result = _matcher(data, shards=shards, shard_mode=mode).match(query)
    # Bit-identical sequence (not merely the same set): the canonical
    # merge must reproduce the global lexicographic emission order.
    assert result.enumeration.matches == oracle.enumeration.matches
    assert result.num_matches == oracle.num_matches
    assert result.order == oracle.order  # phi never sees shards
    # Per-shard accounting covers the totals exactly once (seedless
    # shards are skipped, so outcomes may be fewer than shards).
    assert result.shards is not None and len(result.shards) <= shards
    ids = [o.shard_id for o in result.shards]
    assert len(set(ids)) == len(ids) and all(0 <= i < shards for i in ids)
    assert sum(o.num_matches for o in result.shards) == oracle.num_matches
    assert sum(o.num_enumerations for o in result.shards) == result.num_enumerations


@settings(max_examples=10)
@given(st.integers(0, 10_000), st.integers(1, 20))
def test_truncated_sharded_prefix_equals_unsharded_prefix(seed, limit):
    data, query = _random_instance(seed)
    oracle = _matcher(data, match_limit=limit).match(query)
    result = _matcher(data, match_limit=limit, shards=4).match(query)
    assert result.enumeration.matches == oracle.enumeration.matches
    assert result.num_matches == oracle.num_matches
    assert result.enumeration.limit_reached == oracle.enumeration.limit_reached


@settings(max_examples=10)
@given(st.integers(0, 10_000), st.integers(1, 12))
def test_sharded_stream_prefix_is_bit_identical(seed, limit):
    data, query = _random_instance(seed)
    unsharded = list(_matcher(data).stream(query, limit=limit))
    sharded = list(_matcher(data, shards=3).stream(query, limit=limit))
    assert sharded == unsharded


def test_sharded_graph_input_equals_shards_kwarg():
    data, query = _random_instance(7)
    via_kwarg = _matcher(data, shards=2, shard_mode="degree").match(query)
    via_graph = _matcher(ShardedGraph(data, 2, "degree")).match(query)
    assert via_graph.enumeration.matches == via_kwarg.enumeration.matches


def test_empty_and_disconnected_queries_fall_back_unsharded():
    data, _ = _random_instance(3)
    matcher = _matcher(data, shards=4)
    empty = matcher.match(Graph([], []))
    assert empty.shards is None and empty.num_matches == 1  # one empty embedding
    two = Graph([int(data.labels[0]), int(data.labels[1])], [])
    disconnected = matcher.match(two)
    assert disconnected.shards is None
    assert disconnected.enumeration.matches == _matcher(data).match(two).enumeration.matches


# ----------------------------------------------------------------------
# Shard contexts keep the engine-level invariants
# ----------------------------------------------------------------------
def _shard_runs(data, query, shards):
    gql = GQLFilter()
    candidates = gql.filter(query, data, GraphStats(data))
    orderer = RIOrderer()
    order = orderer.order(query, data, candidates)
    root = int(order[0])
    ecc = query_eccentricity(query, root)
    sharded = ShardedGraph(data, shards)
    return (
        build_shard_runs(query, sharded, candidates, root, ecc, gql),
        tuple(int(u) for u in order),
    )


@pytest.mark.parametrize("seed", range(4))
def test_per_shard_enum_is_engine_agnostic(seed):
    # Definition II.6's #enum must stay bit-identical between the
    # iterative engine and the recursive oracle on every shard's local
    # context.
    data, query = _random_instance(seed)
    runs, order = _shard_runs(data, query, 4)
    iterative = Enumerator(record_matches=True, match_limit=None)
    recursive = RecursiveOracle(record_matches=True, match_limit=None)
    live = [r for r in runs if r.context is not None]
    assert live, "expected at least one seeded shard"
    for run in live:
        a = iterative.run_context(run.context, order)
        b = recursive.run_context(run.context, order)
        assert a.num_enumerations == b.num_enumerations
        assert a.matches == b.matches


def test_root_ownership_restricts_roots_to_owned_seeds():
    data, query = _random_instance(11)
    runs, order = _shard_runs(data, query, 4)
    root = order[0]
    for run in runs:
        if run.context is None:
            assert run.root_candidates == 0
            continue
        locals_ = run.context.candidates.array(root)
        # Every root candidate is an owned (non-halo) local vertex.
        assert all(run.shard.owns_local(int(v)) for v in locals_)
        # The local re-filter may prune seeds further (no embedding can
        # root there), never grow them past the owned seed count.
        assert locals_.size <= run.root_candidates


def test_merge_reproduces_canonical_sequence_for_any_layout():
    # Feed the merge deliberately interleaved (non-contiguous) blocks:
    # it must still produce the global lexicographic order along phi.
    order = (1, 0)
    seq = [(a, b) for b in range(4) for a in range(4)]  # lex along order
    blocks = [seq[0::3], seq[1::3], seq[2::3]]
    assert merge_shard_matches(blocks, order) == seq


def test_remap_matches_is_one_gather_through_to_global():
    data, query = _random_instance(5)
    runs, order = _shard_runs(data, query, 2)
    run = next(r for r in runs if r.context is not None)
    enum = Enumerator(record_matches=True, match_limit=None)
    local = enum.run_context(run.context, order).matches
    for g_match, l_match in zip(remap_matches(local, run.shard), local):
        assert g_match == tuple(int(run.shard.to_global[v]) for v in l_match)
    assert remap_matches((), run.shard) == []


def test_candidate_union_mask_covers_exactly_the_candidates():
    data, query = _random_instance(9)
    candidates = GQLFilter().filter(query, data, GraphStats(data))
    mask = candidate_union_mask(data.num_vertices, candidates)
    expected = set()
    for u in range(query.num_vertices):
        expected.update(int(v) for v in candidates.array(u))
    assert set(np.flatnonzero(mask).tolist()) == expected


def test_halo_stays_candidate_bounded():
    # The memory story: local shard graphs live inside the union of the
    # global candidate sets (plus owned seeds), not the whole graph.
    data, query = _random_instance(13)
    runs, _ = _shard_runs(data, query, 4)
    candidates = GQLFilter().filter(query, data, GraphStats(data))
    allowed = set(np.flatnonzero(
        candidate_union_mask(data.num_vertices, candidates)
    ).tolist())
    for run in runs:
        if run.shard is None:
            continue
        assert set(run.shard.to_global.tolist()) <= allowed
        assert run.shard.num_vertices < data.num_vertices
