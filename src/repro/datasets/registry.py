"""The six evaluation datasets (Table II), synthesized at tractable scale.

The paper evaluates on Citeseer, Yeast, DBLP, Youtube, Wordnet and EU2005.
Those graphs are not redistributable here, so each dataset is synthesized
with matched *shape*: label count, label skew, degree model and average
degree.  The two small graphs keep the paper's exact |V| and |E|; the four
large ones (317 k – 1.13 M vertices) are scaled down — pure-Python
enumeration over a million-vertex graph would dwarf the experiment budget
— while preserving average degree and label count, which are what the
ordering heuristics and the learned policy actually consume.

Every dataset is deterministic in its seed, and generated graphs are
cached in-process and optionally on disk (``REPRO_DATA_DIR``, default
``./data``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.errors import DatasetError
from repro.graphs.generators import chung_lu, connect_components, erdos_renyi
from repro.graphs.graph import Graph
from repro.graphs.io import load_graph, save_graph
from repro.graphs.stats import GraphStats

__all__ = [
    "DatasetSpec",
    "DATASETS",
    "load_dataset",
    "dataset_stats",
    "clear_cache",
    "register_dataset",
    "register_graph_file",
]


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for one synthetic stand-in dataset.

    ``paper_num_vertices`` / ``paper_num_edges`` record Table II (the
    "paper" columns of ``results/table2.txt``); ``num_vertices`` /
    ``avg_degree`` define the synthesized graph.
    """

    name: str
    category: str
    paper_num_vertices: int
    paper_num_edges: int
    num_vertices: int
    avg_degree: float
    num_labels: int
    label_skew: float
    degree_model: str  # "chung_lu" | "erdos_renyi"
    powerlaw_exponent: float
    seed: int
    #: Default query sizes (Table III) and the default (bold) size.
    query_sizes: tuple[int, ...]
    default_query_size: int
    #: Queries denser than this average degree are sparsified (see
    #: repro.graphs.query_gen.sparsify_to_degree).
    query_target_degree: float


DATASETS: dict[str, DatasetSpec] = {
    spec.name: spec
    for spec in (
        DatasetSpec(
            name="citeseer",
            category="citation",
            paper_num_vertices=3327,
            paper_num_edges=4732,
            num_vertices=3327,
            avg_degree=2 * 4732 / 3327,
            num_labels=6,
            label_skew=0.6,
            degree_model="chung_lu",
            powerlaw_exponent=2.9,
            seed=101,
            query_sizes=(4, 8, 16, 32),
            default_query_size=32,
            query_target_degree=3.0,
        ),
        DatasetSpec(
            name="yeast",
            category="biology",
            paper_num_vertices=3112,
            paper_num_edges=12519,
            num_vertices=3112,
            avg_degree=2 * 12519 / 3112,
            num_labels=71,
            label_skew=0.8,
            degree_model="chung_lu",
            powerlaw_exponent=2.4,
            seed=102,
            query_sizes=(4, 8, 16, 32),
            default_query_size=32,
            query_target_degree=4.0,
        ),
        DatasetSpec(
            name="dblp",
            category="social",
            paper_num_vertices=317_080,
            paper_num_edges=1_049_866,
            num_vertices=12_000,
            avg_degree=2 * 1_049_866 / 317_080,
            num_labels=15,
            label_skew=0.8,
            degree_model="chung_lu",
            powerlaw_exponent=2.6,
            seed=103,
            query_sizes=(4, 8, 16, 32),
            default_query_size=32,
            query_target_degree=4.0,
        ),
        DatasetSpec(
            name="youtube",
            category="social",
            paper_num_vertices=1_134_890,
            paper_num_edges=2_987_624,
            num_vertices=12_000,
            avg_degree=2 * 2_987_624 / 1_134_890,
            num_labels=25,
            label_skew=0.9,
            degree_model="chung_lu",
            powerlaw_exponent=2.2,
            seed=104,
            query_sizes=(4, 8, 16, 32),
            default_query_size=32,
            query_target_degree=4.0,
        ),
        DatasetSpec(
            name="wordnet",
            category="lexical",
            paper_num_vertices=76_853,
            paper_num_edges=120_399,
            num_vertices=8_000,
            avg_degree=2 * 120_399 / 76_853,
            num_labels=5,
            label_skew=0.5,
            degree_model="chung_lu",
            powerlaw_exponent=2.7,
            seed=105,
            query_sizes=(4, 8, 16),
            default_query_size=16,
            query_target_degree=3.0,
        ),
        DatasetSpec(
            name="eu2005",
            category="web",
            paper_num_vertices=862_664,
            paper_num_edges=16_138_468,
            num_vertices=6_000,
            avg_degree=2 * 16_138_468 / 862_664,
            num_labels=40,
            label_skew=0.8,
            degree_model="chung_lu",
            powerlaw_exponent=2.1,
            seed=106,
            query_sizes=(4, 8, 16, 32),
            default_query_size=32,
            query_target_degree=4.0,
        ),
    )
}

_MEMORY_CACHE: dict[str, Graph] = {}
_STATS_CACHE: dict[str, GraphStats] = {}


def _data_dir() -> Path:
    return Path(os.environ.get("REPRO_DATA_DIR", "data"))


def clear_cache() -> None:
    """Drop in-process dataset caches (disk files are left alone)."""
    _MEMORY_CACHE.clear()
    _STATS_CACHE.clear()


def load_dataset(name: str, use_disk_cache: bool = True) -> Graph:
    """Synthesize (or load from cache) the named dataset graph."""
    if name not in DATASETS:
        # Same unknown-name style as the component registries and the
        # service catalog: sorted, comma-joined choices.
        raise DatasetError(
            f"unknown dataset {name!r}; valid choices: {', '.join(sorted(DATASETS))}"
        )
    if name in _MEMORY_CACHE:
        return _MEMORY_CACHE[name]

    spec = DATASETS[name]
    path = _data_dir() / f"{name}.graph"
    if use_disk_cache and path.exists():
        graph = load_graph(path)
    else:
        graph = _generate(spec)
        if use_disk_cache:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                save_graph(graph, path)
            except OSError:
                pass  # read-only workspace: in-memory cache still applies
    _MEMORY_CACHE[name] = graph
    return graph


def dataset_stats(name: str) -> GraphStats:
    """Shared :class:`GraphStats` for the named dataset."""
    if name not in _STATS_CACHE:
        _STATS_CACHE[name] = GraphStats(load_dataset(name))
    return _STATS_CACHE[name]


def register_dataset(spec: DatasetSpec, *, overwrite: bool = False) -> DatasetSpec:
    """Add a custom synthetic dataset to the registry.

    Downstream users can benchmark their own graph shapes through the
    same workload/harness machinery as the six paper datasets.
    """
    if spec.name in DATASETS and not overwrite:
        raise DatasetError(f"dataset {spec.name!r} already registered")
    DATASETS[spec.name] = spec
    _MEMORY_CACHE.pop(spec.name, None)
    _STATS_CACHE.pop(spec.name, None)
    return spec


def register_graph_file(
    name: str,
    path: str | os.PathLike[str],
    *,
    query_sizes: tuple[int, ...] = (4, 8, 16, 32),
    default_query_size: int = 8,
    query_target_degree: float = 4.0,
    overwrite: bool = False,
) -> DatasetSpec:
    """Register a real graph from a ``t/v/e`` file as a dataset.

    This is the path for users who *do* have the paper's original data
    graphs (or any labeled graph): point at the file and the full
    workload/benchmark machinery applies.
    """
    graph = load_graph(path)
    spec = DatasetSpec(
        name=name,
        category="custom",
        paper_num_vertices=graph.num_vertices,
        paper_num_edges=graph.num_edges,
        num_vertices=graph.num_vertices,
        avg_degree=graph.average_degree,
        num_labels=graph.num_labels,
        label_skew=0.0,
        degree_model="chung_lu",  # unused: graph comes from the file
        powerlaw_exponent=2.5,
        seed=0,
        query_sizes=query_sizes,
        default_query_size=default_query_size,
        query_target_degree=query_target_degree,
    )
    register_dataset(spec, overwrite=overwrite)
    _MEMORY_CACHE[name] = graph
    return spec


def _generate(spec: DatasetSpec) -> Graph:
    rng = np.random.default_rng(spec.seed)
    if spec.degree_model == "chung_lu":
        graph = chung_lu(
            spec.num_vertices,
            spec.avg_degree,
            spec.num_labels,
            exponent=spec.powerlaw_exponent,
            label_skew=spec.label_skew,
            seed=spec.seed,
        )
    elif spec.degree_model == "erdos_renyi":
        num_edges = int(spec.avg_degree * spec.num_vertices / 2)
        graph = erdos_renyi(
            spec.num_vertices,
            num_edges,
            spec.num_labels,
            label_skew=spec.label_skew,
            seed=spec.seed,
        )
    else:  # pragma: no cover - guarded by the specs above
        raise DatasetError(f"unknown degree model {spec.degree_model!r}")
    return connect_components(graph, rng)
