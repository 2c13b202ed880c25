"""Tests for the query workloads (Table III protocol)."""

import pytest

from repro.datasets import DATASETS, default_query_size, query_workload
from repro.datasets.workloads import paper_query_count
from repro.errors import DatasetError


class TestWorkloadGeneration:
    def test_split_and_sizes(self):
        workload = query_workload("citeseer", 8, count=6, seed=0)
        assert workload.name == "Q8"
        assert len(workload.train) == 3
        assert len(workload.eval) == 3
        for query in workload.all_queries:
            assert query.num_vertices == 8
            assert query.is_connected()

    def test_odd_count_rounds_down_train(self):
        workload = query_workload("citeseer", 4, count=5, seed=0)
        assert len(workload.train) == 2
        assert len(workload.eval) == 3

    def test_default_size_used_when_omitted(self):
        workload = query_workload("wordnet", count=4, seed=0)
        assert workload.size == 16

    def test_deterministic_in_seed(self):
        a = query_workload("citeseer", 8, count=4, seed=3)
        b = query_workload("citeseer", 8, count=4, seed=3)
        assert a.all_queries == b.all_queries

    def test_seeds_vary_queries(self):
        a = query_workload("citeseer", 8, count=4, seed=3)
        b = query_workload("citeseer", 8, count=4, seed=4)
        assert a.all_queries != b.all_queries

    def test_unsupported_size_rejected(self):
        with pytest.raises(DatasetError):
            query_workload("wordnet", 32, count=4)

    def test_unknown_dataset_rejected(self):
        with pytest.raises(DatasetError):
            query_workload("imdb", 8, count=4)

    def test_count_minimum(self):
        with pytest.raises(DatasetError):
            query_workload("citeseer", 8, count=1)

    def test_queries_respect_target_degree(self):
        spec = DATASETS["eu2005"]
        workload = query_workload("eu2005", 16, count=4, seed=0)
        for query in workload.all_queries:
            assert query.average_degree <= spec.query_target_degree + 0.6


class TestPaperProtocol:
    def test_paper_query_counts(self):
        assert paper_query_count(4) == 200
        assert paper_query_count(8) == 400
        assert paper_query_count(16) == 400
        assert paper_query_count(32) == 200

    def test_default_sizes_match_table3(self):
        assert default_query_size("wordnet") == 16
        for name in ("citeseer", "yeast", "dblp", "youtube", "eu2005"):
            assert default_query_size(name) == 32
