"""Tests for embedding verification."""

import numpy as np

from repro.graphs import Graph, erdos_renyi, extract_query
from repro.matching import Enumerator, GQLFilter, RIOrderer
from repro.matching.verify import explain_embedding, verify_all


def setup_instance():
    data = Graph([0, 1, 0, 1], [(0, 1), (1, 2), (2, 3), (3, 0)])
    query = Graph([0, 1], [(0, 1)])
    return query, data


class TestExplainEmbedding:
    def test_valid_embedding(self):
        query, data = setup_instance()
        assert explain_embedding(query, data, [0, 1]) is None
        assert explain_embedding(query, data, [2, 1]) is None

    def test_mapping_as_dict(self):
        query, data = setup_instance()
        assert explain_embedding(query, data, {0: 0, 1: 3}) is None

    def test_wrong_arity(self):
        query, data = setup_instance()
        assert "entries" in explain_embedding(query, data, [0])

    def test_dict_missing_vertices(self):
        query, data = setup_instance()
        assert "cover" in explain_embedding(query, data, {0: 0})

    def test_out_of_range_image(self):
        query, data = setup_instance()
        assert "out of range" in explain_embedding(query, data, [0, 9])

    def test_non_injective(self):
        query = Graph([0, 0], [])
        data = Graph([0, 0], [])
        assert "injective" in explain_embedding(query, data, [0, 0])

    def test_label_mismatch(self):
        query, data = setup_instance()
        assert "label" in explain_embedding(query, data, [1, 0])

    def test_missing_edge(self):
        query, data = setup_instance()
        # Vertices 0 (label 0) and 3 (label 1) are adjacent; 0 and 1 are
        # adjacent too; pick labels right but edge absent: (0,3) IS an
        # edge, so use (2,1)... also an edge. Build a disconnected pair.
        data2 = Graph([0, 1, 0, 1], [(0, 1)])
        assert "no image edge" in explain_embedding(query, data2, [2, 3])


class TestVerifyAll:
    def test_enumerator_output_verifies(self):
        data = erdos_renyi(40, 100, 2, seed=77)
        query = extract_query(data, 4, np.random.default_rng(1))
        candidates = GQLFilter().filter(query, data)
        order = RIOrderer().order(query, data, candidates)
        result = Enumerator(match_limit=None, record_matches=True).run(
            query, data, candidates, order
        )
        assert verify_all(query, data, result.matches) == []

    def test_reports_bad_matches_with_index(self):
        query, data = setup_instance()
        problems = verify_all(query, data, [[0, 1], [1, 0], [2, 3]])
        assert len(problems) == 1
        assert problems[0].startswith("match 1:")
