"""Smoke tests for the experiment functions at minimal scale.

Full-scale regeneration lives in ``benchmarks/``; here each experiment is
exercised end-to-end with tiny workloads so regressions in the harness
are caught by the unit suite.
"""

import numpy as np
import pytest

from repro.bench import BenchSettings, Harness, QueryOutcome
from repro.bench.experiments import (
    ALL_EXPERIMENTS,
    fig3,
    fig6,
    fig9,
    fig11,
    joint_enum,
    summarize,
    table2,
    table3,
    table4,
)


@pytest.fixture(scope="module")
def harness():
    return Harness(
        BenchSettings(
            query_count=4,
            enum_limit=400_000,
            match_limit=200,
            train_epochs=1,
            train_match_limit=200,
            train_enum_limit=300_000,
            hidden_dim=8,
            seed=0,
        )
    )


class TestTables:
    def test_table2_reports_all_datasets(self, harness, capsys):
        payload = table2(harness)
        assert set(payload) == {
            "citeseer", "yeast", "dblp", "youtube", "wordnet", "eu2005",
        }
        assert payload["citeseer"]["paper_num_vertices"] == 3327
        assert "Table II" in capsys.readouterr().out

    def test_table3_defaults(self, harness, capsys):
        payload = table3(harness)
        assert payload["wordnet"]["default"] == 16
        assert "Table III" in capsys.readouterr().out

    def test_table4_model_space_constant(self, harness, capsys):
        payload = table4(harness)
        assert payload["model_bytes"] > 0
        sizes = payload["datasets"]
        assert sizes["eu2005"] > sizes["citeseer"]
        assert "Table IV" in capsys.readouterr().out


class TestFigures:
    def test_fig3_small(self, harness, capsys):
        payload = fig3(harness, datasets=("citeseer",), methods=("ri", "hybrid"))
        assert set(payload["citeseer"]) == {"ri", "hybrid"}
        for cell in payload["citeseer"].values():
            assert cell["time"] > 0
            assert cell["queries"] == 2  # eval half of query_count=4
            assert cell["solved"] + cell["unsolved"] == cell["queries"]
            solved = [e for e in cell["solved_enum"] if e is not None]
            assert len(solved) == cell["solved"]
            assert sum(solved) <= cell["enum"]
        out = capsys.readouterr().out
        assert "Fig. 3" in out and "Σ#enum" in out

    def test_fig6_spectrum_optimal_wins(self, harness, capsys):
        payload = fig6(
            harness,
            datasets=("citeseer",),
            num_queries=2,
            query_size=4,
            max_permutations=60,
            match_limit=100,
        )
        queries = payload["citeseer"]["queries"]
        assert queries
        for entry in queries:
            assert (
                entry["opt"]["num_enumerations"]
                <= entry["hybrid"]["num_enumerations"]
            )
        assert "Fig. 6" in capsys.readouterr().out

    def test_fig11_limits_monotone(self, harness, capsys):
        payload = fig11(
            harness, dataset="citeseer", size=8, limits=(50, 200)
        )
        assert set(payload) == {"50", "200"}
        for method in ("rlqvo", "hybrid"):
            smaller_cap, larger_cap, shared = joint_enum(
                payload["50"][method], payload["200"][method]
            )
            assert shared and larger_cap >= smaller_cap
        assert "Fig. 11" in capsys.readouterr().out

    def test_fig9_pretrained_regime_is_the_pretrained_model(
        self, harness, monkeypatch, capsys
    ):
        # The fine-tune updates the trainer's policy in place: the
        # pretrained-only regime must be scored on weights taken before
        # it, not on the fine-tuned ones.
        scored = []
        evaluate = harness.evaluate

        def recording(method, dataset, **kwargs):
            scored.append(kwargs["orderer"].policy.state_dict())
            return evaluate(method, dataset, **kwargs)

        monkeypatch.setattr(harness, "evaluate", recording)
        fig9(harness, datasets=("citeseer",), pretrain_size=4)
        _, incremental, pretrained = scored  # full, incremental, pretrained
        assert any(not np.array_equal(incremental[k], pretrained[k]) for k in pretrained)
        assert "Fig. 9" in capsys.readouterr().out


def test_registry_covers_every_table_and_figure():
    assert set(ALL_EXPERIMENTS) == {
        "table2", "table3", "table4",
        "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    }


def _outcome(num_enumerations, solved, enum_time=0.5):
    return QueryOutcome(
        method="m", dataset="d", size=4, query_index=0,
        filter_time=0.1, order_time=0.0, enum_time=enum_time,
        num_matches=0, num_enumerations=num_enumerations, solved=solved,
    )


def test_summarize_counts_beside_times():
    # Times are as measured: an unsolved query is not charged a limit.
    cell = summarize([_outcome(10, True, 0.2), _outcome(7, False, 1.0)])
    assert cell["time"] == pytest.approx(0.7)
    assert cell["enum_time"] == pytest.approx(0.6)
    assert cell["enum"] == 17
    assert (cell["queries"], cell["solved"], cell["unsolved"]) == (2, 1, 1)
    assert cell["solved_enum"] == (10, None)


def test_joint_enum_keeps_the_queries_both_solved():
    a = summarize([_outcome(10, True), _outcome(7, False), _outcome(3, True)])
    b = summarize([_outcome(20, True), _outcome(9, True), _outcome(5, False)])
    assert joint_enum(a, b) == (10, 20, 1)
    assert joint_enum(b, a) == (20, 10, 1)
    unsolved = summarize([_outcome(4, False), _outcome(6, False), _outcome(8, False)])
    assert joint_enum(a, unsolved) == (0, 0, 0)
    with pytest.raises(ValueError):
        joint_enum(a, summarize([_outcome(1, True)]))
