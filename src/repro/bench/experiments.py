"""One regeneration function per table/figure of the paper's evaluation.

Every function takes a :class:`~repro.bench.harness.Harness`, runs the
experiment at the harness's scale, prints rows shaped like the paper's
table/figure, and returns a structured payload that the benchmark
wrappers (and tests) can assert on.  Each experiment's arguments are
its defaults here, and each docstring says where they depart from the
paper's sweep.  :func:`run_experiment` is how ``repro-bench`` and the
figure tests run one; at ``BenchSettings()`` it regenerates the
committed ``results/<id>.txt`` tables and ``results/counts.json``.

Each evaluated cell (one method on one query set) is a :func:`summarize`
dict: its times beside its counts — ``Σ#enum`` and solved / unsolved
queries.  All methods share one enumerator (Sec. IV-C), so ``#enum``
isolates order quality and, unlike the times, depends on the commit
alone: a query is solved when it finishes within the harness's
``#enum`` budget, so which queries those are does not depend on the
host either.  :func:`joint_enum` compares two cells on the queries both
solved.
"""

from __future__ import annotations

import contextlib
import io
from collections import defaultdict
from pathlib import Path

import numpy as np

from repro.api.matcher import Matcher
from repro.bench.harness import FIG3_METHODS, BenchSettings, Harness, QueryOutcome
from repro.bench.reporting import (
    format_seconds,
    geometric_mean,
    percentile_series,
    print_table,
    record_counts,
)
from repro.core.orderer import RLQVOOrderer
from repro.core.trainer import RLQVOTrainer
from repro.datasets.registry import DATASETS, dataset_stats, load_dataset
from repro.matching.enumeration import Enumerator
from repro.matching.filters import GQLFilter
from repro.matching.ordering import OptimalOrderer, RIOrderer
from repro.nn.serialization import model_nbytes
from repro.rl.reward import RewardConfig

__all__ = [
    "table2",
    "table3",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table4",
    "ablation_design",
    "ALL_EXPERIMENTS",
    "run_experiment",
    "summarize",
    "joint_enum",
]

_ALL_DATASETS = tuple(DATASETS)
_FIG4_METHODS = ("rlqvo", "hybrid", "qsi", "ri", "vf2pp")


def summarize(outcomes: list[QueryOutcome]) -> dict:
    """One cell: mean query / enumeration time, ``Σ#enum``, solved counts.

    Times are as measured.  ``solved_enum`` keeps each query's ``#enum``,
    ``None`` where the query ran out of budget, for :func:`joint_enum`.
    """
    times = [o.total_time for o in outcomes]
    enum_times = [o.enum_time for o in outcomes]
    solved = sum(o.solved for o in outcomes)
    return {
        "time": float(np.mean(times)) if outcomes else float("nan"),
        "enum_time": float(np.mean(enum_times)) if outcomes else float("nan"),
        "enum": sum(o.num_enumerations for o in outcomes),
        "queries": len(outcomes),
        "solved": solved,
        "unsolved": len(outcomes) - solved,
        "solved_enum": tuple(
            o.num_enumerations if o.solved else None for o in outcomes
        ),
    }


def joint_enum(a: dict, b: dict) -> tuple[int, int, int]:
    """``Σ#enum`` of cells ``a`` and ``b`` over the queries both solved, and how many.

    Two cells that share no solved query compare nothing (``(0, 0, 0)``),
    so a caller asserting on the sums checks the third value first.
    """
    pairs = [
        (x, y)
        for x, y in zip(a["solved_enum"], b["solved_enum"], strict=True)
        if x is not None and y is not None
    ]
    return sum(x for x, _ in pairs), sum(y for _, y in pairs), len(pairs)


def _counts(cell: dict) -> str:
    """``Σ#enum`` of a cell, with its unsolved count when there is one."""
    text = f"{cell['enum']:,}"
    return f"{text} ({cell['unsolved']} unsolved)" if cell["unsolved"] else text


_TIME_METRICS = {
    "time": "average query processing time",
    "enum_time": "average enumeration time",
}


def _print_grid(
    title: str,
    corner: str,
    grid: dict,
    columns: tuple,
    times: tuple[str, ...] = ("time",),
    label=str,
) -> None:
    """Print ``grid[row][column]`` cells: one table per time metric, then Σ#enum.

    ``title`` holds one ``{}`` for the metric's name.
    """
    header = [corner] + [label(c) for c in columns]
    tables = [
        (_TIME_METRICS[key], lambda cell, key=key: format_seconds(cell[key]))
        for key in times
    ]
    for what, text in tables + [("Σ#enum", _counts)]:
        rows = [
            [row] + [text(cells[c]) for c in columns] for row, cells in grid.items()
        ]
        print_table(header, rows, title=title.format(what))


# ---------------------------------------------------------------------------
# Table II / Table III
# ---------------------------------------------------------------------------
def table2(harness: Harness) -> dict:
    """Table II: dataset properties (paper scale vs synthesized scale)."""
    rows = []
    payload = {}
    for name, spec in DATASETS.items():
        graph = load_dataset(name)
        payload[name] = {
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "num_labels": graph.num_labels,
            "avg_degree": graph.average_degree,
            "paper_num_vertices": spec.paper_num_vertices,
            "paper_num_edges": spec.paper_num_edges,
        }
        rows.append(
            [
                name,
                f"{spec.paper_num_vertices:,}",
                f"{spec.paper_num_edges:,}",
                f"{graph.num_vertices:,}",
                f"{graph.num_edges:,}",
                graph.num_labels,
                f"{graph.average_degree:.1f}",
            ]
        )
    print_table(
        ["dataset", "|V| paper", "|E| paper", "|V| ours", "|E| ours", "|L|", "d"],
        rows,
        title="Table II — dataset properties (synthesized stand-ins)",
    )
    return payload


def table3(harness: Harness) -> dict:
    """Table III: query sets per dataset (sizes and default size)."""
    rows = []
    payload = {}
    for name, spec in DATASETS.items():
        sizes = ", ".join(f"Q{s}" for s in spec.query_sizes)
        payload[name] = {
            "sizes": spec.query_sizes,
            "default": spec.default_query_size,
            "count_per_set": harness.settings.query_count,
        }
        rows.append([name, sizes, f"Q{spec.default_query_size}"])
    print_table(
        ["dataset", "query sets", "default"],
        rows,
        title="Table III — query sets",
    )
    return payload


# ---------------------------------------------------------------------------
# Fig. 3 — average query processing time
# ---------------------------------------------------------------------------
def fig3(
    harness: Harness,
    datasets: tuple[str, ...] = _ALL_DATASETS,
    methods: tuple[str, ...] = FIG3_METHODS,
) -> dict:
    """Fig. 3: average query processing time, 7 methods × 6 datasets.

    Time is ``t_filter + t_order + t_enum`` as measured, on each dataset's
    default query set; a query that runs out of ``#enum`` budget is
    unsolved and its time is that of the steps it took.  Each cell is a
    :func:`summarize` dict.
    """
    payload: dict[str, dict[str, dict]] = defaultdict(dict)
    for dataset in datasets:
        for method in methods:
            payload[dataset][method] = summarize(harness.evaluate(method, dataset))
    _print_grid("Fig. 3 — {} (default query sets)", "dataset", payload, methods)
    return dict(payload)


# ---------------------------------------------------------------------------
# Fig. 4 — query time percentiles and unsolved counts
# ---------------------------------------------------------------------------
def fig4(
    harness: Harness,
    datasets: tuple[str, ...] = ("citeseer", "yeast", "wordnet"),
    methods: tuple[str, ...] = _FIG4_METHODS,
    percentiles: tuple[float, ...] = (50, 75, 90, 95, 100),
) -> dict:
    """Fig. 4: cumulative query-time distribution (find-all) + unsolved.

    The paper's curves use the time to find *all* matches; we therefore
    drop the match limit and keep only the ``#enum`` budget, so no run
    waits out a deadline and the unsolved counts do not depend on the
    host or its load.  The percentiles are of measured query times.  Each
    cell is a :func:`summarize` dict plus its ``percentiles`` series.  A second
    table per dataset sets RL-QVO's ``Σ#enum`` beside each baseline's,
    over the queries both solved (:func:`joint_enum`).  Departs from the
    paper's sweep: three of its six datasets.
    """
    payload: dict[str, dict[str, dict]] = defaultdict(dict)
    for dataset in datasets:
        rows = []
        for method in methods:
            outcomes = harness.evaluate(method, dataset, match_limit=None)
            cell = summarize(outcomes)
            cell["percentiles"] = percentile_series(
                [o.total_time for o in outcomes], percentiles
            )
            payload[dataset][method] = cell
            rows.append(
                [method]
                + [format_seconds(v) for _, v in cell["percentiles"]]
                + [cell["unsolved"], f"{cell['enum']:,}"]
            )
        print_table(
            ["method"]
            + [f"P{int(p)}" for p in percentiles]
            + ["unsolved", "Σ#enum"],
            rows,
            title=f"Fig. 4 — query time percentiles on {dataset} (find-all)",
        )
        rlqvo = payload[dataset]["rlqvo"]
        rows = []
        for method, cell in payload[dataset].items():
            if method != "rlqvo":
                mine, theirs, shared = joint_enum(rlqvo, cell)
                rows.append([method, shared, f"{mine:,}", f"{theirs:,}"])
        print_table(
            ["baseline", "both solved", "rlqvo Σ#enum", "baseline Σ#enum"],
            rows,
            title=f"Fig. 4 — rlqvo against each baseline on {dataset}",
        )
    return dict(payload)


# ---------------------------------------------------------------------------
# Fig. 5 — enumeration time vs query size
# ---------------------------------------------------------------------------
def fig5(
    harness: Harness,
    datasets: tuple[str, ...] = ("citeseer", "yeast", "wordnet"),
    methods: tuple[str, ...] = FIG3_METHODS,
) -> dict:
    """Fig. 5: average enumeration time for Q4…Q32 on each dataset.

    All methods share the enumerator, so enumeration time — and, free of
    the host, ``#enum`` — isolates order quality (Sec. IV-C).  Cells are
    ``payload[dataset][method][size]`` :func:`summarize` dicts.  Departs
    from the paper's sweep: three of its six datasets.
    """
    payload: dict[str, dict[str, dict[int, dict]]] = {}
    for dataset in datasets:
        sizes = DATASETS[dataset].query_sizes
        payload[dataset] = {
            method: {
                size: summarize(harness.evaluate(method, dataset, size=size))
                for size in sizes
            }
            for method in methods
        }
        _print_grid(
            f"Fig. 5 — {{}} on {dataset}", "method", payload[dataset], sizes,
            times=("enum_time",), label=lambda s: f"Q{s}",
        )
    return payload


# ---------------------------------------------------------------------------
# Fig. 6 — spectrum analysis against the optimal order
# ---------------------------------------------------------------------------
def fig6(
    harness: Harness,
    datasets: tuple[str, ...] = ("citeseer", "yeast"),
    num_queries: int = 4,
    query_size: int = 8,
    max_permutations: int = 600,
    match_limit: int = 500,
) -> dict:
    """Fig. 6: enumeration time of Opt vs RL-QVO vs Hybrid on Q8 queries.

    The optimal order enumerates (capped) all connected permutations and
    keeps the one with minimum ``#enum`` — the paper's spectrum analysis
    at reduced permutation budget.  Every run is bounded by the
    harness's ``#enum`` budget, not a deadline.  Departs from the
    paper's sweep: citeseer and yeast (not DBLP), four queries each, at
    most ``max_permutations`` orders (not all), each probe capped at
    ``match_limit`` matches.
    """
    settings = harness.settings
    enumerator = Enumerator(
        match_limit=match_limit,
        time_limit=None,
        enum_limit=settings.enum_limit,
    )
    payload: dict[str, dict] = {}
    for dataset in datasets:
        data = load_dataset(dataset)
        stats = dataset_stats(dataset)
        workload = harness.workload(dataset, query_size)
        queries = workload.eval[:num_queries]
        rlqvo, _ = harness.trained_orderer(dataset, query_size)
        hybrid = RIOrderer()
        # Seed the (possibly capped) exhaustive search with both compared
        # orders so "Opt" lower-bounds them even under the cap.
        optimal = OptimalOrderer(
            match_limit=match_limit,
            enum_limit=settings.enum_limit,
            max_permutations=max_permutations,
            seed_orderers=[hybrid, rlqvo],
        )
        # One prepared matcher (GQL filter + optimal sweep) per dataset;
        # per query, the compared orderers re-plan over the *same*
        # Phase (1) artifacts, so all three runs share one candidate space.
        matcher = Matcher(
            data, filter=GQLFilter(), orderer=optimal,
            enumerator=enumerator, stats=stats,
        )

        per_query = []
        for query in queries:
            plan = matcher.plan(query)
            if not plan.matchable:
                continue
            entry = {}
            for name, query_plan in (
                ("opt", plan),
                ("rlqvo", matcher.replan(plan, rlqvo)),
                ("hybrid", matcher.replan(plan, hybrid)),
            ):
                run = matcher.execute(query_plan)
                entry[name] = {
                    "enum_time": run.enum_time,
                    "num_enumerations": run.num_enumerations,
                }
            per_query.append(entry)

        summary = {
            name: geometric_mean([e[name]["enum_time"] for e in per_query])
            for name in ("opt", "rlqvo", "hybrid")
        }
        payload[dataset] = {"queries": per_query, "geomean_enum_time": summary}
        rows = [
            [
                i,
                format_seconds(e["opt"]["enum_time"]),
                format_seconds(e["rlqvo"]["enum_time"]),
                format_seconds(e["hybrid"]["enum_time"]),
                e["opt"]["num_enumerations"],
                e["rlqvo"]["num_enumerations"],
                e["hybrid"]["num_enumerations"],
            ]
            for i, e in enumerate(per_query)
        ]
        print_table(
            ["q", "t(opt)", "t(rlqvo)", "t(hybrid)", "#en(opt)", "#en(rlqvo)", "#en(hybrid)"],
            rows,
            title=f"Fig. 6 — spectrum vs optimal order on {dataset} (Q{query_size})",
        )
    return payload


# ---------------------------------------------------------------------------
# Fig. 7 — ablation study on EU2005
# ---------------------------------------------------------------------------
def _ablation_configs(settings: BenchSettings) -> dict[str, dict]:
    """Config overrides for each RL-QVO ablation variant (Sec. IV-D)."""
    return {
        "rlqvo": {},
        "rif": {"feature_mode": "random"},
        "nn": {"gnn_kind": "mlp"},
        "gat": {"gnn_kind": "gat"},
        "graphsage": {"gnn_kind": "sage"},
        "graphnn": {"gnn_kind": "graphnn"},
        "asap": {"gnn_kind": "asap"},
        "noent": {"use_entropy_reward": False},
        "noval": {"use_validity_reward": False},
    }


def fig7(
    harness: Harness,
    dataset: str = "eu2005",
    sizes: tuple[int, ...] = (4, 8, 16),
    train_size: int = 8,
) -> dict:
    """Fig. 7: query/enumeration time and ``#enum`` of RL-QVO ablation variants.

    Each variant is trained once on the ``Q<train_size>`` training half
    (incremental-style transfer, keeping the budget tractable) and
    evaluated on each of ``sizes``.  Cells are ``payload[variant][size]``
    :func:`summarize` dicts.  Departs from the paper's sweep: no Q32 set,
    and one training size for every evaluated size.
    """
    payload: dict[str, dict[int, dict]] = {}
    for variant, overrides in _ablation_configs(harness.settings).items():
        config = harness.settings.rlqvo_config(**overrides)
        orderer, _ = harness.trained_orderer(dataset, train_size, config=config)
        payload[variant] = {
            size: summarize(
                harness.evaluate("rlqvo", dataset, size=size, orderer=orderer)
            )
            for size in sizes
        }
    _print_grid(
        f"Fig. 7 — {{}} of ablation variants on {dataset}", "variant", payload,
        sizes, times=("time", "enum_time"), label=lambda s: f"Q{s}",
    )
    return payload


# ---------------------------------------------------------------------------
# Fig. 8 — output dimension sweep
# ---------------------------------------------------------------------------
def fig8(
    harness: Harness,
    datasets: tuple[str, ...] = ("wordnet", "citeseer"),
    dims: tuple[int, ...] = (16, 32, 64, 128),
    train_size: int | None = 16,
) -> dict:
    """Fig. 8: average query processing time vs GCN output dimension.

    ``train_size`` trains on a cheaper query size and applies the model
    to the default evaluation set (incremental-style transfer; ``None``
    trains on the default size).  Cells are ``payload[dataset][dim]``
    :func:`summarize` dicts.  Departs from the paper's sweep: wordnet and
    citeseer (not DBLP and EU2005), no 256 dimension, Q16 training.
    """
    payload: dict[str, dict[int, dict]] = defaultdict(dict)
    for dataset in datasets:
        for dim in dims:
            config = harness.settings.rlqvo_config(hidden_dim=dim)
            orderer, _ = harness.trained_orderer(dataset, train_size, config=config)
            payload[dataset][dim] = summarize(
                harness.evaluate("rlqvo", dataset, orderer=orderer)
            )
    _print_grid("Fig. 8 — {} vs output dimension", "dataset", payload, dims)
    return dict(payload)


# ---------------------------------------------------------------------------
# Fig. 9 — incremental training
# ---------------------------------------------------------------------------
def fig9(
    harness: Harness,
    datasets: tuple[str, ...] = ("citeseer", "wordnet"),
    pretrain_size: int = 8,
) -> dict:
    """Fig. 9: full vs incremental vs pretrained-only training.

    Three regimes per dataset (Sec. IV-F): (1) full training on the
    default set, (2) full training on a smaller set + few incremental
    epochs on the default set, (3) the smaller-set model applied as-is.
    Reports both query processing time and training time, and beside
    them the counts that do not depend on the host: epochs trained and
    each regime's :func:`summarize` counts.  The full regime is the
    harness's cached default-config model.  Departs from the paper's
    sweep: citeseer and wordnet (not DBLP, EU2005 and YouTube), and Q8
    pretraining.
    """
    settings = harness.settings
    payload: dict[str, dict] = {}
    for dataset in datasets:
        data = load_dataset(dataset)
        stats = dataset_stats(dataset)
        default_size = DATASETS[dataset].default_query_size
        pre_wl = harness.workload(dataset, pretrain_size)
        target_wl = harness.workload(dataset, default_size)
        regimes: dict[str, dict] = {}

        # (1) full training on the default query set
        orderer, hist = harness.trained_orderer(dataset, default_size)
        regimes["full"] = {
            "orderer": orderer,
            "train_time": hist.total_time,
            "train_epochs": len(hist.epochs),
        }

        # (2)+(3) pretrain on the smaller set, then fine-tune
        trainer2 = RLQVOTrainer(
            data, settings.rlqvo_config(seed=settings.seed + 1), stats=stats
        )
        pre_hist = trainer2.train(list(pre_wl.train))
        regimes["pretrained"] = {
            # A snapshot: the fine-tune below updates trainer2's policy
            # in place, and this regime is the pretrained model as-is.
            "orderer": RLQVOOrderer(
                trainer2.policy.clone(), trainer2.feature_builder
            ),
            "train_time": pre_hist.total_time,
            "train_epochs": len(pre_hist.epochs),
        }
        incr_hist = trainer2.train(
            list(target_wl.train), epochs=settings.incremental_epochs
        )
        regimes["incremental"] = {
            "orderer": trainer2.make_orderer(),
            "train_time": pre_hist.total_time + incr_hist.total_time,
            "train_epochs": len(pre_hist.epochs) + len(incr_hist.epochs),
        }

        result = {}
        for regime in ("full", "incremental", "pretrained"):
            info = regimes[regime]
            result[regime] = summarize(
                harness.evaluate("rlqvo", dataset, orderer=info.pop("orderer"))
            )
            result[regime].update(info)
        payload[dataset] = result

    rows = [
        [
            dataset,
            regime,
            format_seconds(vals["time"]),
            _counts(vals),
            format_seconds(vals["train_time"]),
            vals["train_epochs"],
        ]
        for dataset, result in payload.items()
        for regime, vals in result.items()
    ]
    print_table(
        ["dataset", "regime", "avg query time", "Σ#enum", "training time", "epochs"],
        rows,
        title="Fig. 9 — incremental training comparison",
    )
    return payload


# ---------------------------------------------------------------------------
# Fig. 10 — GNN depth sweep
# ---------------------------------------------------------------------------
def fig10(
    harness: Harness,
    datasets: tuple[str, ...] = ("citeseer", "wordnet"),
    layer_counts: tuple[int, ...] = (1, 2, 3),
    train_size: int | None = 16,
) -> dict:
    """Fig. 10: average query processing time vs number of GNN layers.

    ``train_size`` is :func:`fig8`'s.  Cells are ``payload[dataset][layers]``
    :func:`summarize` dicts.  Departs from the paper's sweep: citeseer and
    wordnet (not DBLP and EU2005), no fourth layer, Q16 training.
    """
    payload: dict[str, dict[int, dict]] = defaultdict(dict)
    for dataset in datasets:
        for layers in layer_counts:
            config = harness.settings.rlqvo_config(num_gnn_layers=layers)
            orderer, _ = harness.trained_orderer(dataset, train_size, config=config)
            payload[dataset][layers] = summarize(
                harness.evaluate("rlqvo", dataset, orderer=orderer)
            )
    _print_grid(
        "Fig. 10 — {} vs number of GNN layers", "dataset", payload, layer_counts,
        label=lambda n: f"{n} layer(s)",
    )
    return dict(payload)


# ---------------------------------------------------------------------------
# Fig. 11 — enumeration time vs number of matches
# ---------------------------------------------------------------------------
def fig11(
    harness: Harness,
    dataset: str = "youtube",
    size: int = 16,
    limits: tuple[int | None, ...] = (100, 1_000, 10_000, None),
) -> dict:
    """Fig. 11: RL-QVO vs Hybrid enumeration time as the match cap grows.

    ``None`` is the paper's "ALL" setting.  The gap should widen with the
    cap: better orders help most on large search spaces.  Cells are
    ``payload[cap label][method]`` :func:`summarize` dicts.  Departs from
    the paper's sweep: caps 10^2–10^4 and ALL (not 10^3–10^5 and ALL).
    """
    methods = ("rlqvo", "hybrid")
    payload: dict[str, dict[str, dict]] = defaultdict(dict)
    for limit in limits:
        label = "ALL" if limit is None else f"{limit:g}"
        for method in methods:
            payload[label][method] = summarize(
                harness.evaluate(method, dataset, size=size, match_limit=limit)
            )
    _print_grid(
        f"Fig. 11 — {{}} vs number of matches ({dataset} Q{size})", "#matches",
        payload, methods, times=("enum_time",),
    )
    return dict(payload)


# ---------------------------------------------------------------------------
# Table IV — space evaluation
# ---------------------------------------------------------------------------
def table4(harness: Harness) -> dict:
    """Table IV: data graph space vs (constant) model parameter space."""
    from repro.core.policy import PolicyNetwork

    model = PolicyNetwork(harness.settings.rlqvo_config())
    model_bytes = model_nbytes(model)
    rows = []
    payload = {"model_bytes": model_bytes, "datasets": {}}
    for name in DATASETS:
        graph = load_dataset(name)
        # Canonical CSR payload only: the process-cached graph may carry
        # lazily materialized views from earlier experiments, and Table IV
        # must not depend on which experiments ran first.
        graph_bytes = graph.memory_bytes(include_lazy_views=False)
        payload["datasets"][name] = graph_bytes
        rows.append(
            [name, _format_bytes(graph_bytes), _format_bytes(model_bytes)]
        )
    print_table(
        ["dataset", "graph space", "model space"],
        rows,
        title="Table IV — space evaluation",
    )
    return payload


def _format_bytes(n: int) -> str:
    if n < 1024:
        return f"{n} B"
    if n < 1024**2:
        return f"{n / 1024:.1f} kB"
    return f"{n / 1024**2:.1f} MB"


# ---------------------------------------------------------------------------
# A design-choice ablation beyond the paper's Fig. 7
# ---------------------------------------------------------------------------
def ablation_design(harness: Harness, dataset: str = "yeast", size: int = 16) -> dict:
    """The reward squashing ``f_enum`` (log-gap vs log-ratio) against RI.

    Each variant's total ``#enum`` over the evaluation queries, GQL's
    candidates ordered by the variant (a query with an empty candidate set
    is skipped), under the harness's match cap and ``#enum`` budget.
    """
    data = load_dataset(dataset)
    stats = dataset_stats(dataset)
    enumerator = Enumerator(
        match_limit=harness.settings.match_limit,
        time_limit=None,
        enum_limit=harness.settings.enum_limit,
    )
    orderers = {"ri": RIOrderer()}
    for name, overrides in (
        ("ppo-log", {}),
        ("ppo-logratio", {"reward": RewardConfig(fenum="log_ratio")}),
    ):
        config = harness.settings.rlqvo_config(**overrides)
        orderers[name], _ = harness.trained_orderer(dataset, size, config=config)
    payload = dict.fromkeys(orderers, 0)
    gql = GQLFilter()
    for query in harness.workload(dataset, size).eval:
        candidates = gql.filter(query, data, stats)
        if candidates.has_empty():
            continue
        for name, orderer in orderers.items():
            order = orderer.order(query, data, candidates, stats)
            run = enumerator.run(query, data, candidates, order)
            payload[name] += run.num_enumerations
    print_table(
        ["variant", "total eval #enum"],
        [[name, value] for name, value in payload.items()],
        title=f"Ablation — reward squashing ({dataset} Q{size})",
    )
    return payload


#: Experiment registry: what ``repro-bench`` and the figure tests run.
ALL_EXPERIMENTS = {
    "table2": table2,
    "table3": table3,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
    "table4": table4,
    "ablation_design": ablation_design,
}


def run_experiment(name: str, harness: Harness, directory: Path | None = None) -> dict:
    """Run one experiment, echo its printed tables, and return its payload.

    Given a ``directory``, the tables also go to ``<name>.txt`` there and
    the payload's counts into its ``counts.json``
    (:func:`~repro.bench.reporting.record_counts`).
    """
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        payload = ALL_EXPERIMENTS[name](harness)
    text = buffer.getvalue()
    print(text)
    if directory is not None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{name}.txt").write_text(text)
        record_counts(directory, harness.settings, name, payload)
    return payload
