"""Tests for custom dataset registration."""

import pytest

from repro.datasets import (
    DATASETS,
    DatasetSpec,
    load_dataset,
    query_workload,
    register_graph_file,
)
from repro.datasets.registry import register_dataset
from repro.errors import DatasetError
from repro.graphs import erdos_renyi, save_graph


@pytest.fixture()
def cleanup():
    added = []
    yield added
    for name in added:
        DATASETS.pop(name, None)


def make_spec(name: str) -> DatasetSpec:
    return DatasetSpec(
        name=name,
        category="test",
        paper_num_vertices=100,
        paper_num_edges=300,
        num_vertices=100,
        avg_degree=6.0,
        num_labels=4,
        label_skew=0.5,
        degree_model="erdos_renyi",
        powerlaw_exponent=2.5,
        seed=77,
        query_sizes=(4, 8),
        default_query_size=4,
        query_target_degree=4.0,
    )


class TestRegisterDataset:
    def test_register_and_load(self, cleanup):
        register_dataset(make_spec("tiny-test"))
        cleanup.append("tiny-test")
        graph = load_dataset("tiny-test", use_disk_cache=False)
        assert graph.num_vertices == 100
        workload = query_workload("tiny-test", 4, count=4, seed=0)
        assert len(workload.all_queries) == 4

    def test_duplicate_name_rejected(self, cleanup):
        register_dataset(make_spec("dup-test"))
        cleanup.append("dup-test")
        with pytest.raises(DatasetError):
            register_dataset(make_spec("dup-test"))

    def test_overwrite_allowed(self, cleanup):
        register_dataset(make_spec("ow-test"))
        cleanup.append("ow-test")
        register_dataset(make_spec("ow-test"), overwrite=True)

    def test_builtin_name_protected(self):
        with pytest.raises(DatasetError):
            register_dataset(make_spec("citeseer"))


class TestRegisterGraphFile:
    def test_file_backed_dataset(self, tmp_path, cleanup):
        graph = erdos_renyi(60, 150, 3, seed=12)
        path = tmp_path / "mine.graph"
        save_graph(graph, path)
        spec = register_graph_file(
            "file-test", path, query_sizes=(4,), default_query_size=4
        )
        cleanup.append("file-test")
        assert spec.num_vertices == 60
        assert load_dataset("file-test") == graph
        workload = query_workload("file-test", 4, count=4, seed=1)
        assert all(q.num_vertices == 4 for q in workload.all_queries)
