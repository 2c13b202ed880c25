"""Tests for the benchmark harness."""

import pytest

from repro.bench import BenchSettings, Harness, METHODS, method_matcher
from repro.errors import DatasetError
from repro.graphs import erdos_renyi
from repro.matching import Enumerator, GQLFilter, LDFFilter, RIOrderer
from repro.matching.ordering import QSIOrderer


def tiny_settings() -> BenchSettings:
    return BenchSettings(
        query_count=4,
        time_limit=0.5,
        match_limit=200,
        train_epochs=1,
        train_match_limit=200,
        train_time_limit=0.3,
        hidden_dim=8,
        seed=0,
    )


class TestBenchSettings:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUERIES", "6")
        monkeypatch.setenv("REPRO_BENCH_TIME_LIMIT", "0.7")
        monkeypatch.setenv("REPRO_BENCH_MATCH_LIMIT", "none")
        monkeypatch.setenv("REPRO_BENCH_EPOCHS", "3")
        settings = BenchSettings.from_env()
        assert settings.query_count == 6
        assert settings.time_limit == 0.7
        assert settings.match_limit is None
        assert settings.train_epochs == 3

    def test_rlqvo_config_derivation(self):
        settings = tiny_settings()
        config = settings.rlqvo_config()
        assert config.epochs == 1
        assert config.hidden_dim == 8
        config2 = settings.rlqvo_config(hidden_dim=32)
        assert config2.hidden_dim == 32


class TestMethodRegistry:
    def test_paper_baselines_registered(self):
        assert set(METHODS) == {"qsi", "ri", "vf2pp", "gql", "veq", "hybrid"}

    @pytest.fixture(scope="class")
    def data(self):
        return erdos_renyi(20, 40, 2, seed=0)

    def test_hybrid_composition_matches_paper(self, data):
        enumerator = Enumerator()
        matcher = method_matcher("hybrid", data, enumerator)
        assert isinstance(matcher.candidate_filter, GQLFilter)
        assert isinstance(matcher.orderer, RIOrderer)
        assert matcher.enumerator is enumerator

    def test_qsi_composition(self, data):
        matcher = method_matcher("qsi", data, Enumerator())
        assert isinstance(matcher.candidate_filter, LDFFilter)
        assert isinstance(matcher.orderer, QSIOrderer)

    def test_unknown_method_rejected(self, data):
        with pytest.raises(DatasetError):
            method_matcher("magic", data, Enumerator())

    def test_rlqvo_requires_orderer(self, data):
        with pytest.raises(DatasetError):
            method_matcher("rlqvo", data, Enumerator())


class TestHarnessEvaluate:
    @pytest.fixture(scope="class")
    def harness(self):
        return Harness(tiny_settings())

    def test_workload_cached(self, harness):
        a = harness.workload("citeseer", 4)
        b = harness.workload("citeseer", 4)
        assert a is b

    def test_evaluate_baseline_outcomes(self, harness):
        outcomes = harness.evaluate("ri", "citeseer", size=4)
        assert len(outcomes) == 2  # eval half of query_count=4
        for outcome in outcomes:
            assert outcome.method == "ri"
            assert outcome.charged_time > 0
            assert outcome.num_enumerations >= 0
            if not outcome.solved:
                assert outcome.charged_time >= harness.settings.time_limit

    def test_trained_orderer_cached(self, harness):
        a, hist_a = harness.trained_orderer("citeseer", 4)
        b, hist_b = harness.trained_orderer("citeseer", 4)
        assert a.policy is b.policy
        assert hist_a is hist_b
        assert len(hist_a.epochs) == 1

    def test_evaluate_rlqvo(self, harness):
        outcomes = harness.evaluate("rlqvo", "citeseer", size=4)
        assert len(outcomes) == 2
        assert all(o.method == "rlqvo" for o in outcomes)
