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
        enum_limit=500_000,
        match_limit=200,
        train_epochs=1,
        train_match_limit=200,
        train_enum_limit=300_000,
        hidden_dim=8,
        seed=0,
    )


class TestBenchSettings:
    def test_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_QUERIES", "6")
        monkeypatch.setenv("REPRO_BENCH_ENUM_LIMIT", "70000")
        monkeypatch.setenv("REPRO_BENCH_MATCH_LIMIT", "none")
        monkeypatch.setenv("REPRO_BENCH_EPOCHS", "3")
        settings = BenchSettings.from_env()
        assert settings.query_count == 6
        assert settings.enum_limit == 70_000
        assert settings.match_limit is None
        assert settings.train_epochs == 3

    def test_env_overrides_apply_onto_a_base(self, monkeypatch):
        # A variable that equals the class default must still override a
        # base that holds another value.
        base = tiny_settings()
        monkeypatch.setenv("REPRO_BENCH_EPOCHS", str(BenchSettings().train_epochs))
        monkeypatch.setenv("REPRO_BENCH_ENUM_LIMIT", str(BenchSettings().enum_limit))
        settings = BenchSettings.from_env(base)
        assert settings.train_epochs == BenchSettings().train_epochs
        assert settings.enum_limit == BenchSettings().enum_limit
        assert settings.query_count == base.query_count
        assert settings.hidden_dim == base.hidden_dim

    def test_no_variables_leave_the_base(self, monkeypatch):
        for name in (
            "REPRO_BENCH_QUERIES", "REPRO_BENCH_ENUM_LIMIT",
            "REPRO_BENCH_MATCH_LIMIT", "REPRO_BENCH_EPOCHS", "REPRO_BENCH_SEED",
        ):
            monkeypatch.delenv(name, raising=False)
        assert BenchSettings.from_env(tiny_settings()) == tiny_settings()
        assert BenchSettings.from_env() == BenchSettings()

    def test_rlqvo_config_derivation(self):
        settings = tiny_settings()
        config = settings.rlqvo_config()
        assert config.epochs == 1
        assert config.hidden_dim == 8
        assert config.train_enum_limit == 300_000
        assert config.train_time_limit is None
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
            assert outcome.total_time > 0
            assert outcome.num_enumerations >= 0
            if not outcome.solved:
                assert outcome.num_enumerations == harness.settings.enum_limit

    def test_trained_orderer_cached(self, harness):
        a, hist_a = harness.trained_orderer("citeseer", 4)
        b, hist_b = harness.trained_orderer("citeseer", 4)
        assert a.policy is b.policy
        assert hist_a is hist_b
        assert len(hist_a.epochs) == 1

    def test_trained_orderer_keyed_by_the_whole_config(self, harness):
        from repro.rl import RewardConfig

        default, _ = harness.trained_orderer("citeseer", 4)
        # An equal config, however it is built, shares the model.
        same, _ = harness.trained_orderer(
            "citeseer", 4,
            config=harness.settings.rlqvo_config(
                hidden_dim=harness.settings.hidden_dim
            ),
        )
        assert same.policy is default.policy
        # Fields outside the architecture still select another model.
        other, _ = harness.trained_orderer(
            "citeseer", 4,
            config=harness.settings.rlqvo_config(
                reward=RewardConfig(fenum="log_ratio"),
                learning_rate=1e-2,
                train_match_limit=7,
            ),
        )
        assert other.policy is not default.policy

    def test_evaluate_rlqvo(self, harness):
        outcomes = harness.evaluate("rlqvo", "citeseer", size=4)
        assert len(outcomes) == 2
        assert all(o.method == "rlqvo" for o in outcomes)
