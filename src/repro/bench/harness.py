"""Benchmark harness: compared methods, limits, model cache (Sec. IV-A).

The paper compares seven backtracking matchers that differ in their
filter/order combination but share one enumeration implementation — the
property that lets enumeration time stand in for order quality.  The
:data:`METHODS` table of (filter name, orderer name) pairs reproduces
that matrix:

================  =================  =====================
method            filter             ordering
================  =================  =====================
``qsi``           LDF                QuickSI edge-rarity
``ri``            LDF                RI structure greedy
``vf2pp``         LDF                VF2++ label rarity
``gql``           GQL                GraphQL min-candidate
``veq``           DP-iso (DAG DP)    VEQ NEC-aware
``hybrid``        GQL                RI  (the SOTA of [14])
``rlqvo``         GQL                learned policy
================  =================  =====================

Scale knobs live in :class:`BenchSettings` (env-overridable): the paper's
500 s / 10^5-match caps become an ``#enum`` budget and a match cap suited
to a pure-Python substrate.  A query that needs more steps than the
budget is unsolved (the paper's over-limit queries, Sec. IV-A); which
queries those are is a function of the commit, not of the host's speed
or load.  Times are reported as measured, never charged.
"""

from __future__ import annotations

import os

from dataclasses import dataclass, replace

import numpy as np

from repro.api.matcher import Matcher
from repro.core.config import RLQVOConfig
from repro.core.orderer import RLQVOOrderer
from repro.core.trainer import RLQVOTrainer, TrainingHistory
from repro.datasets.registry import DATASETS, dataset_stats, load_dataset
from repro.datasets.workloads import QueryWorkload, query_workload
from repro.errors import DatasetError
from repro.graphs.graph import Graph
from repro.matching.engine import MatchResult
from repro.matching.enumeration import Enumerator
from repro.matching.ordering import Orderer

__all__ = [
    "BenchSettings",
    "QueryOutcome",
    "Harness",
    "METHODS",
    "method_matcher",
]

#: Baseline methods: name -> (filter name, orderer name).
METHODS: dict[str, tuple[str, str]] = {
    "qsi": ("ldf", "qsi"),
    "ri": ("ldf", "ri"),
    "vf2pp": ("ldf", "vf2pp"),
    "gql": ("gql", "gql"),
    "veq": ("dpiso", "veq"),
    "hybrid": ("gql", "ri"),
}

#: Methods shown in Fig. 3 (ordered as in the paper's legend).
FIG3_METHODS = ("rlqvo", "veq", "hybrid", "ri", "qsi", "vf2pp", "gql")


@dataclass(frozen=True)
class BenchSettings:
    """Scale settings for the experiment suite.

    The defaults are the size the committed ``results/`` are made at.
    ``enum_limit`` is each evaluated query's ``#enum`` budget and
    ``train_enum_limit`` each training run's (:class:`RLQVOConfig`'s
    ``train_enum_limit``).  Environment overrides (read by
    :meth:`from_env`, the one way to set them from ``repro-bench``):
    ``REPRO_BENCH_QUERIES``, ``REPRO_BENCH_ENUM_LIMIT``,
    ``REPRO_BENCH_MATCH_LIMIT``, ``REPRO_BENCH_EPOCHS``,
    ``REPRO_BENCH_SEED``.
    """

    query_count: int = 8
    enum_limit: int = 1_000_000
    match_limit: int | None = 5_000
    train_epochs: int = 10
    incremental_epochs: int = 3
    train_match_limit: int = 1_500
    train_enum_limit: int = 400_000
    rollouts_per_query: int = 2
    hidden_dim: int = 32
    num_gnn_layers: int = 2
    seed: int = 0

    @staticmethod
    def from_env(base: "BenchSettings | None" = None) -> "BenchSettings":
        """``base`` (default: the class defaults) with ``REPRO_BENCH_*`` applied.

        A variable that is set always wins, whatever value ``base`` holds.
        """
        kwargs = {}
        mapping = {
            "REPRO_BENCH_QUERIES": ("query_count", int),
            "REPRO_BENCH_ENUM_LIMIT": ("enum_limit", int),
            "REPRO_BENCH_EPOCHS": ("train_epochs", int),
            "REPRO_BENCH_SEED": ("seed", int),
        }
        for env, (attr, cast) in mapping.items():
            if env in os.environ:
                kwargs[attr] = cast(os.environ[env])
        if "REPRO_BENCH_MATCH_LIMIT" in os.environ:
            raw = os.environ["REPRO_BENCH_MATCH_LIMIT"]
            kwargs["match_limit"] = None if raw.lower() == "none" else int(raw)
        return replace(base if base is not None else BenchSettings(), **kwargs)

    def rlqvo_config(self, **overrides) -> RLQVOConfig:
        """RL-QVO config derived from the bench scale settings."""
        base = dict(
            epochs=self.train_epochs,
            incremental_epochs=self.incremental_epochs,
            hidden_dim=self.hidden_dim,
            num_gnn_layers=self.num_gnn_layers,
            train_match_limit=self.train_match_limit,
            train_enum_limit=self.train_enum_limit,
            rollouts_per_query=self.rollouts_per_query,
            seed=self.seed,
        )
        base.update(overrides)
        return RLQVOConfig(**base)


@dataclass(frozen=True)
class QueryOutcome:
    """One (method, query) evaluation row."""

    method: str
    dataset: str
    size: int
    query_index: int
    filter_time: float
    order_time: float
    enum_time: float
    num_matches: int
    num_enumerations: int
    #: Whether the query finished within the ``#enum`` budget.
    solved: bool

    @property
    def total_time(self) -> float:
        """``t_filter + t_order + t_enum`` as measured (Sec. IV-B)."""
        return self.filter_time + self.order_time + self.enum_time


def method_matcher(
    method: str,
    data: Graph,
    enumerator: Enumerator,
    orderer: Orderer | None = None,
    stats=None,
) -> Matcher:
    """Prepare-once facade for a compared method over one data graph.

    The returned :class:`~repro.api.matcher.Matcher` has all
    data-graph-side state (stats, components, the trained ``rlqvo``
    orderer — which must be passed explicitly) bound at construction,
    so a whole workload can be answered against it.
    """
    if method == "rlqvo":
        if orderer is None:
            raise DatasetError("method 'rlqvo' needs a trained orderer")
        filter_name = "gql"
    elif method in METHODS:
        filter_name, orderer = METHODS[method]
    else:
        raise DatasetError(f"unknown method {method!r}; options: {sorted(METHODS)}")
    return Matcher(
        data, filter=filter_name, orderer=orderer,
        enumerator=enumerator, stats=stats,
    )


class Harness:
    """Shared state for the experiment suite: workloads + trained models."""

    def __init__(self, settings: BenchSettings | None = None):
        self.settings = settings if settings is not None else BenchSettings.from_env()
        self._workloads: dict[tuple[str, int], QueryWorkload] = {}
        self._trainers: dict[tuple[str, int, RLQVOConfig], RLQVOTrainer] = {}
        self._histories: dict[tuple[str, int, RLQVOConfig], TrainingHistory] = {}

    # ------------------------------------------------------------------
    # Workloads
    # ------------------------------------------------------------------
    def workload(self, dataset: str, size: int | None = None) -> QueryWorkload:
        """Cached Table III workload for (dataset, size)."""
        spec = DATASETS[dataset]
        size = spec.default_query_size if size is None else size
        key = (dataset, size)
        if key not in self._workloads:
            self._workloads[key] = query_workload(
                dataset,
                size,
                count=self.settings.query_count,
                seed=self.settings.seed,
                data=load_dataset(dataset),
            )
        return self._workloads[key]

    # ------------------------------------------------------------------
    # RL-QVO training (cached per dataset/size/config)
    # ------------------------------------------------------------------
    def trained_orderer(
        self,
        dataset: str,
        size: int | None = None,
        config: RLQVOConfig | None = None,
    ) -> tuple[RLQVOOrderer, TrainingHistory]:
        """Train (or fetch) an RL-QVO orderer for the given workload.

        Models are cached by the whole (frozen, hashable) config, so two
        experiments asking for equal configs share one training run and
        configs that differ in any field never share one.
        """
        spec = DATASETS[dataset]
        size = spec.default_query_size if size is None else size
        config = config if config is not None else self.settings.rlqvo_config()
        key = (dataset, size, config)
        if key not in self._trainers:
            data = load_dataset(dataset)
            stats = dataset_stats(dataset)
            trainer = RLQVOTrainer(data, config, stats=stats)
            workload = self.workload(dataset, size)
            history = trainer.train(list(workload.train))
            self._trainers[key] = trainer
            self._histories[key] = history
        return self._trainers[key].make_orderer(), self._histories[key]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(
        self,
        method: str,
        dataset: str,
        size: int | None = None,
        queries: tuple[Graph, ...] | None = None,
        match_limit: int | None = "default",
        orderer: Orderer | None = None,
    ) -> list[QueryOutcome]:
        """Run one method over the eval half of a workload."""
        spec = DATASETS[dataset]
        size = spec.default_query_size if size is None else size
        if queries is None:
            queries = self.workload(dataset, size).eval
        if match_limit == "default":
            match_limit = self.settings.match_limit
        if method == "rlqvo" and orderer is None:
            orderer, _ = self.trained_orderer(dataset, size)

        enumerator = Enumerator(
            match_limit=match_limit,
            time_limit=None,
            enum_limit=self.settings.enum_limit,
            record_matches=False,
        )
        data = load_dataset(dataset)
        stats = dataset_stats(dataset)
        # One prepared matcher answers the whole workload: dataset stats
        # and the method's components are bound once, per Algorithm 1's
        # prepare-once/query-many deployment shape.
        matcher = method_matcher(method, data, enumerator, orderer, stats)
        rng = np.random.default_rng(self.settings.seed + 1)

        outcomes = []
        for index, query in enumerate(queries):
            result = matcher.match(query, rng)
            outcomes.append(
                self._outcome(method, dataset, size, index, result)
            )
        return outcomes

    @staticmethod
    def _outcome(
        method: str, dataset: str, size: int, index: int, result: MatchResult
    ) -> QueryOutcome:
        return QueryOutcome(
            method=method,
            dataset=dataset,
            size=size,
            query_index=index,
            filter_time=result.filter_time,
            order_time=result.order_time,
            enum_time=result.enum_time,
            num_matches=result.num_matches,
            num_enumerations=result.num_enumerations,
            solved=result.solved,
        )
