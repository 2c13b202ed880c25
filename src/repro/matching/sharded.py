"""Shard-parallel enumeration: per-shard Phase (1), root ownership, merge.

The sharded pipeline keeps the paper's phases intact but runs Phase (1)
and Phase (3) once per shard, against each shard's small local graph:

1. **Global plan.**  Filtering and ordering run on the *source* graph
   exactly as in the unsharded pipeline — the matching order φ (and for
   the learned orderer, its features) never see shards, so φ is
   bit-identical to the unsharded oracle's.
2. **Shard materialization.**  For each ownership range, the shard's
   *seeds* are ``C(φ[0]) ∩ owned`` — root ownership: a shard enumerates
   only embeddings whose root image it owns, so every embedding is
   counted exactly once and halo vertices are excluded from root
   candidates by construction.  The local graph is the induced subgraph
   on the k-hop closure of the seeds (k = eccentricity of φ[0] in the
   query) expanded only through the union of the global candidate sets:
   every vertex of an embedding is a global candidate of some query
   vertex and lies within k candidate-hops of the root image, so the
   closure contains every vertex those embeddings can touch and nothing
   query-irrelevant.
3. **Per-shard Phase (1).**  The configured filter re-runs on the local
   graph (with local :class:`~repro.graphs.stats.GraphStats`), and the
   root column is restricted to the shard's seeds.  Completeness is
   relative to the graph the filter runs on, and every owned embedding
   exists in the local graph — so no needed vertex is pruned.
4. **Merge.**  The engine emits matches in lexicographic order of the
   image tuple along φ; the monotone local→global id map preserves that
   order per shard, and ownership ranges are contiguous and ascending,
   so shard sequences are disjoint ascending runs.  The merge of
   :func:`merge_shard_matches` therefore reproduces the unsharded
   engine's exact match sequence — including under ``match_limit``
   truncation, where the merged prefix equals the unsharded prefix.

``#enum`` is reported *per shard* (and summed): each shard's count obeys
the cross-engine bit-identity invariant on its own context, but
the sum exceeds the unsharded ``#enum`` by the replicated root steps and
any cross-shard halo exploration — sharding trades bounded per-shard
memory for a little repeated work, it does not change what is found.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.partition import GraphShard, ShardedGraph, khop_closure
from repro.graphs.stats import GraphStats
from repro.matching.block import MatchBlock
from repro.matching.candidates import CandidateFilter, CandidateSets
from repro.matching.context import MatchingContext

__all__ = [
    "ShardOutcome",
    "ShardRun",
    "ShardedMatchStream",
    "build_shard_runs",
    "candidate_union_mask",
    "merge_shard_matches",
    "remap_matches",
]


@dataclass(frozen=True)
class ShardOutcome:
    """Per-shard slice of a sharded enumeration's accounting."""

    shard_id: int
    num_matches: int
    num_enumerations: int
    elapsed: float
    timed_out: bool
    limit_reached: bool


@dataclass
class ShardRun:
    """One shard's Phase (1) product, ready for enumeration.

    ``context`` is ``None`` for shards with no owned root candidates —
    they cannot root any embedding and are skipped entirely (their
    ``ShardPlan`` still records the empty seed set).
    """

    shard: GraphShard | None
    context: MatchingContext | None
    root_candidates: int
    filter_time: float


def candidate_union_mask(num_vertices: int, candidates: CandidateSets) -> np.ndarray:
    """Boolean mask of data vertices appearing in *any* candidate set.

    The halo closure expands only through this mask: by filter
    completeness every embedding vertex is a global candidate of its
    query vertex, so restricting the BFS to candidates loses no
    embedding while shrinking halos to the query-relevant subgraph.
    """
    mask = np.zeros(num_vertices, dtype=bool)
    for u in range(candidates.num_query_vertices):
        mask[candidates.array(u)] = True
    return mask


def build_shard_runs(
    query: Graph,
    sharded: ShardedGraph,
    candidates: CandidateSets,
    root: int,
    ecc: int,
    candidate_filter: CandidateFilter,
) -> list[ShardRun]:
    """Materialize every shard and run Phase (1) on each local graph.

    Returns one :class:`ShardRun` per ownership range, in shard order.
    ``candidates`` are the *global* Phase (1) sets (they seed the
    closures); ``ecc`` is the eccentricity of ``root`` in ``query``.
    The candidate-space build is billed into the run's ``filter_time``,
    mirroring the unsharded pipeline's billing.
    """
    allowed = candidate_union_mask(sharded.source.num_vertices, candidates)
    root_global = candidates.array(root)
    runs: list[ShardRun] = []
    for shard_id, (lo, hi) in enumerate(sharded.ranges):
        t0 = time.perf_counter()
        start = int(np.searchsorted(root_global, lo, side="left"))
        stop = int(np.searchsorted(root_global, hi, side="left"))
        seeds = root_global[start:stop]
        if seeds.size == 0:
            runs.append(ShardRun(None, None, 0, time.perf_counter() - t0))
            continue
        keep = khop_closure(sharded.source, seeds, ecc, allowed)
        shard = sharded.extract(shard_id, keep)
        local_candidates = candidate_filter.filter(
            query, shard.graph, GraphStats(shard.graph)
        )
        # Root ownership: only owned seeds may root an embedding here.
        local_candidates = local_candidates.restricted(root, shard.to_local(seeds))
        context = MatchingContext(query, shard.graph, local_candidates)
        if not local_candidates.has_empty():
            context.ensure_space()
        runs.append(
            ShardRun(shard, context, int(seeds.size), time.perf_counter() - t0)
        )
    return runs


def remap_matches(matches, shard: GraphShard) -> MatchBlock:
    """Translate local-id embeddings into global ids (one gather).

    ``matches`` is a shard run's :class:`MatchBlock` (or anything one
    can be built from); so is what comes back.
    """
    return MatchBlock(shard.to_global[MatchBlock(matches).array])


def merge_shard_matches(per_shard: list, order: tuple[int, ...]) -> MatchBlock:
    """Merge per-shard blocks of matches into the canonical sequence.

    The sort key is the image tuple along ``order`` — the lexicographic
    emission order of the engine: the blocks are concatenated and put
    in that order by one stable ``np.lexsort`` over the columns of
    ``order``.  With contiguous ascending ownership ranges the shard
    runs are already disjoint ascending blocks and the sort moves
    nothing; sorting regardless keeps the canonical-sequence guarantee
    independent of the range layout.
    """
    arrays = [MatchBlock(block).array for block in per_shard]
    arrays = [array for array in arrays if len(array)]
    if len(arrays) < 2:
        return MatchBlock(arrays[0] if arrays else ())
    stacked = np.concatenate(arrays)
    # lexsort's *last* key is the primary one.
    rank = np.lexsort([stacked[:, int(u)] for u in reversed(order)])
    return MatchBlock(stacked[rank])


class ShardedMatchStream:
    """Lazy sharded enumeration with :class:`MatchStream` semantics.

    Drives the per-shard streams *sequentially in shard order* — which,
    by the merge argument above, yields embeddings in exactly the
    canonical global sequence — remapping each pulled match to global
    ids.  A global ``match_limit`` is threaded through as each shard's
    remaining budget, so a consumer stopping after ``k`` matches never
    pays for later shards; the matches yielded are bit-identical to the
    first ``k`` of the unsharded stream.  ``#enum`` reflects this
    sequential, budgeted traversal (per-shard root steps included); a
    batch sharded execution explores every shard under the full limit,
    so its summed ``#enum`` can exceed the stream's.

    The counter surface (``num_matches`` / ``num_enumerations`` /
    ``timed_out`` / ``limit_reached`` / ``exhausted`` / ``elapsed`` /
    ``result()`` / ``close()``) duck-types :class:`~repro.matching.
    enumeration.MatchStream`, so service-layer wrappers proxy it
    unchanged.
    """

    def __init__(self, enumerator, runs: list[ShardRun], order, match_limit):
        self._enumerator = enumerator
        self._order = [int(u) for u in order]
        self._pending = [
            run for run in runs
            if run.context is not None and not run.context.candidates.has_empty()
        ]
        self._match_limit = match_limit
        self._start = time.perf_counter()
        self._elapsed = 0.0
        self._stream = None
        self._shard: GraphShard | None = None
        self._found = 0
        self._enum_done = 0
        self._timed_out = False
        self._limit_reached = False
        self._finished = False

    def __iter__(self) -> "ShardedMatchStream":
        return self

    def __next__(self) -> tuple[int, ...]:
        while True:
            if self._finished:
                raise StopIteration
            if self._stream is None:
                if not self._pending:
                    self._finish()
                    raise StopIteration
                remaining = None
                if self._match_limit is not None:
                    remaining = self._match_limit - self._found
                    if remaining <= 0:
                        self._limit_reached = True
                        self._finish()
                        raise StopIteration
                run = self._pending.pop(0)
                self._shard = run.shard
                self._stream = self._enumerator.stream_context(
                    run.context, self._order, remaining
                )
            try:
                match = next(self._stream)
            except StopIteration:
                self._retire_stream()
                continue
            shard = self._shard
            self._found += 1
            self._elapsed = time.perf_counter() - self._start
            if self._match_limit is not None and self._found >= self._match_limit:
                self._limit_reached = True
                self._finish()
            elif self._stream.exhausted:
                self._retire_stream()
            return tuple(int(shard.to_global[v]) for v in match)

    def _retire_stream(self) -> None:
        """Fold the finished shard stream's counters into the totals."""
        if self._stream is not None:
            self._enum_done += self._stream.num_enumerations
            self._timed_out = self._timed_out or self._stream.timed_out
            self._stream.close()
            self._stream = None
            self._shard = None

    def _finish(self) -> None:
        if not self._finished:
            self._retire_stream()
            self._finished = True
            self._elapsed = time.perf_counter() - self._start

    def close(self) -> None:
        """Stop the search early and release the active shard stream."""
        self._finish()

    @property
    def num_matches(self) -> int:
        """Embeddings yielded so far (across shards)."""
        return self._found

    @property
    def num_enumerations(self) -> int:
        """``#enum`` explored so far, summed over shards."""
        live = self._stream.num_enumerations if self._stream is not None else 0
        return self._enum_done + live

    @property
    def timed_out(self) -> bool:
        """Whether any shard's deadline fired."""
        if self._stream is not None and self._stream.timed_out:
            return True
        return self._timed_out

    @property
    def limit_reached(self) -> bool:
        """Whether the global match limit stopped the stream."""
        return self._limit_reached

    @property
    def exhausted(self) -> bool:
        """Whether the stream is finished (by any cause)."""
        return self._finished

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds from stream creation to the last pull."""
        return self._elapsed

    def result(self):
        """The stream's outcome as a batch-shaped result."""
        from repro.matching.enumeration import EnumerationResult

        return EnumerationResult(
            num_matches=self._found,
            num_enumerations=self.num_enumerations,
            elapsed=self._elapsed,
            timed_out=self.timed_out,
            limit_reached=self._limit_reached,
        )
