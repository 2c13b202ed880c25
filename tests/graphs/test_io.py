"""Tests for the t/v/e graph text format."""

import pytest

from repro.errors import GraphFormatError
from repro.graphs import Graph, load_graph, save_graph
from repro.graphs.io import dumps_graph, loads_graph


def sample() -> Graph:
    return Graph([2, 0, 1, 1], [(0, 1), (1, 2), (2, 3), (0, 3)])


class TestRoundtrip:
    def test_dumps_loads_identity(self):
        g = sample()
        assert loads_graph(dumps_graph(g)) == g

    def test_file_roundtrip(self, tmp_path):
        g = sample()
        path = tmp_path / "g.graph"
        save_graph(g, path)
        assert load_graph(path) == g

    def test_dumps_format_shape(self):
        text = dumps_graph(Graph([7], []))
        assert text.splitlines() == ["t 1 0", "v 0 7 0"]

    def test_comments_and_blank_lines_ignored(self):
        text = "# comment\n\nt 2 1\nv 0 0 1\n% other comment\nv 1 0 1\ne 0 1\n"
        g = loads_graph(text)
        assert g.num_vertices == 2 and g.num_edges == 1


class TestMalformedInputs:
    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="missing"):
            loads_graph("v 0 0 0\n")

    def test_duplicate_header(self):
        with pytest.raises(GraphFormatError, match="duplicate 't'"):
            loads_graph("t 1 0\nt 1 0\nv 0 0 0\n")

    def test_vertex_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="declares 2 vertices"):
            loads_graph("t 2 0\nv 0 0 0\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(GraphFormatError, match="declares 1 edges"):
            loads_graph("t 2 1\nv 0 0 0\nv 1 0 0\n")

    def test_duplicate_vertex(self):
        with pytest.raises(GraphFormatError, match="duplicate vertex"):
            loads_graph("t 2 0\nv 0 0 0\nv 0 0 0\n")

    def test_non_dense_ids(self):
        with pytest.raises(GraphFormatError, match="dense"):
            loads_graph("t 2 0\nv 0 0 0\nv 5 0 0\n")

    def test_unknown_record(self):
        with pytest.raises(GraphFormatError, match="unknown record"):
            loads_graph("t 1 0\nv 0 0 0\nx 1 2\n")

    def test_malformed_numbers(self):
        with pytest.raises(GraphFormatError, match="malformed"):
            loads_graph("t 1 0\nv 0 zero 0\n")

    def test_declared_degree_mismatch(self):
        with pytest.raises(GraphFormatError, match="declared degree"):
            loads_graph("t 2 1\nv 0 0 5\nv 1 0 1\ne 0 1\n")

    def test_degree_optional(self):
        g = loads_graph("t 2 1\nv 0 0\nv 1 0\ne 0 1\n")
        assert g.num_edges == 1
