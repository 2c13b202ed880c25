"""Tests for the dataset registry (Table II stand-ins)."""

import pytest

from repro.datasets import DATASETS, clear_cache, dataset_stats, load_dataset
from repro.errors import DatasetError
from repro.graphs.validation import check_graph


class TestSpecs:
    def test_six_paper_datasets_present(self):
        assert set(DATASETS) == {
            "citeseer", "yeast", "dblp", "youtube", "wordnet", "eu2005",
        }

    def test_paper_scale_recorded(self):
        assert DATASETS["youtube"].paper_num_vertices == 1_134_890
        assert DATASETS["eu2005"].paper_num_edges == 16_138_468

    def test_small_graphs_kept_at_full_scale(self):
        for name in ("citeseer", "yeast"):
            spec = DATASETS[name]
            assert spec.num_vertices == spec.paper_num_vertices

    def test_large_graphs_scaled_down(self):
        for name in ("dblp", "youtube", "wordnet", "eu2005"):
            spec = DATASETS[name]
            assert spec.paper_num_vertices > spec.num_vertices

    def test_wordnet_query_sizes_capped_at_16(self):
        assert DATASETS["wordnet"].query_sizes == (4, 8, 16)
        assert DATASETS["wordnet"].default_query_size == 16


class TestLoading:
    @pytest.mark.parametrize("name", ["citeseer", "yeast"])
    def test_shape_matches_spec(self, name):
        spec = DATASETS[name]
        graph = load_dataset(name, use_disk_cache=False)
        check_graph(graph)
        assert graph.num_vertices == spec.num_vertices
        assert graph.num_labels == spec.num_labels
        assert graph.average_degree == pytest.approx(spec.avg_degree, rel=0.35)
        assert graph.is_connected()

    def test_memory_cache_returns_same_object(self):
        a = load_dataset("citeseer")
        b = load_dataset("citeseer")
        assert a is b

    def test_deterministic_regeneration(self):
        clear_cache()
        a = load_dataset("citeseer", use_disk_cache=False)
        clear_cache()
        b = load_dataset("citeseer", use_disk_cache=False)
        assert a == b

    def test_disk_cache_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_DATA_DIR", str(tmp_path))
        clear_cache()
        a = load_dataset("citeseer")
        assert (tmp_path / "citeseer.graph").exists()
        clear_cache()
        b = load_dataset("citeseer")  # now read from disk
        assert a == b
        clear_cache()

    def test_unknown_dataset_rejected(self):
        with pytest.raises(DatasetError):
            load_dataset("imdb")

    def test_unknown_dataset_lists_sorted_choices(self):
        # Registry-style error contract: sorted, comma-joined names —
        # the same shape the component registries and the service
        # catalog emit.
        with pytest.raises(DatasetError) as excinfo:
            load_dataset("imdb")
        message = str(excinfo.value)
        listed = message.split("valid choices: ", 1)[1].split(", ")
        assert listed == sorted(DATASETS)

    def test_dataset_stats_shared(self):
        stats = dataset_stats("citeseer")
        assert stats is dataset_stats("citeseer")
        assert stats.graph is load_dataset("citeseer")
