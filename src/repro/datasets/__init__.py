"""Dataset registry (Table II) and query workloads (Table III)."""

from repro.datasets.registry import (
    DATASETS,
    DatasetSpec,
    clear_cache,
    dataset_stats,
    load_dataset,
    register_graph_file,
)
from repro.datasets.workloads import (
    QueryWorkload,
    default_query_size,
    query_workload,
)

__all__ = [
    "DATASETS",
    "DatasetSpec",
    "QueryWorkload",
    "clear_cache",
    "dataset_stats",
    "default_query_size",
    "load_dataset",
    "query_workload",
    "register_graph_file",
]
