"""Tests for the training and benchmark CLIs."""

import json

import pytest

from repro.core.cli import main as train_main
from repro.core.model_io import load_model


class TestTrainCLI:
    def test_train_and_save(self, tmp_path, capsys):
        out = tmp_path / "model"
        code = train_main(
            [
                "citeseer",
                "--size", "4",
                "--queries", "4",
                "--epochs", "1",
                "--rollouts", "1",
                "--hidden-dim", "8",
                "--train-match-limit", "100",
                "--train-enum-limit", "300000",
                "--out", str(out),
            ]
        )
        assert code == 0
        policy = load_model(out)
        assert policy.config.hidden_dim == 8
        assert policy.config.train_enum_limit == 300_000
        assert policy.config.train_time_limit is None
        captured = capsys.readouterr().out
        assert "saved model" in captured
        assert "epoch   0" in captured

    @pytest.mark.parametrize("algorithm", ["ppo", "reinforce", "actor_critic"])
    def test_algorithm_flag_is_retired(self, tmp_path, capsys, algorithm):
        # PPO is the one updater: the flag that chose one is a usage
        # error whatever it names, and nothing is trained or saved.
        out = tmp_path / "model"
        with pytest.raises(SystemExit) as exc_info:
            train_main(
                [
                    "citeseer",
                    "--size", "4",
                    "--queries", "4",
                    "--epochs", "1",
                    "--hidden-dim", "8",
                    "--algorithm", algorithm,
                    "--out", str(out),
                ]
            )
        assert exc_info.value.code == 2
        assert "--algorithm" in capsys.readouterr().err
        assert not out.exists()

    def test_time_limit_flag_is_retired(self, tmp_path, capsys):
        # The #enum budget replaced the per-run deadline: the old flag is
        # a usage error and nothing is trained or saved.
        out = tmp_path / "model"
        with pytest.raises(SystemExit) as exc_info:
            train_main(
                ["citeseer", "--size", "4", "--train-time-limit", "1.0",
                 "--out", str(out)]
            )
        assert exc_info.value.code == 2
        assert "--train-time-limit" in capsys.readouterr().err
        assert not out.exists()

    def test_held_out_evaluation_and_jsonl_log(self, tmp_path, capsys):
        log = tmp_path / "train.jsonl"
        code = train_main(
            [
                "citeseer",
                "--size", "4",
                "--queries", "6",
                "--epochs", "2",
                "--hidden-dim", "8",
                "--train-match-limit", "100",
                "--train-enum-limit", "300000",
                "--eval-queries", "2",
                "--log-jsonl", str(log),
                "--out", str(tmp_path / "model"),
            ]
        )
        assert code == 0
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [line["epoch"] for line in lines] == [0, 1]
        for line in lines:
            assert line["first_pass_ratio"] == 1.0
            assert line["workload"] == "Q4"
            assert line["passes"] == 2
            assert line["heldout_enum"] > 0
            assert line["time_sample"] > 0 and line["time_train"] > 0
        captured = capsys.readouterr().out
        assert "passes=2" in captured
        assert f"heldout={lines[0]['heldout_ratio']:.3f}" in captured
        assert (
            f"sample={lines[0]['time_sample']:.2f}s "
            f"train={lines[0]['time_train']:.2f}s" in captured
        )

    def test_jsonl_log_is_overwritten_and_names_each_phase(self, tmp_path):
        log = tmp_path / "train.jsonl"
        log.write_text('{"epoch": 99}\n')  # a previous run's file
        train_main(
            [
                "citeseer", "--size", "8", "--incremental-from", "4",
                "--queries", "4", "--epochs", "2", "--hidden-dim", "8",
                "--train-match-limit", "100", "--train-enum-limit", "300000",
                "--log-jsonl", str(log), "--out", str(tmp_path / "model"),
            ]
        )
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert [(line["workload"], line["epoch"]) for line in lines[:3]] == [
            ("Q4", 0), ("Q4", 1), ("Q8", 0),
        ]
        assert {line["workload"] for line in lines[2:]} == {"Q8"}

    def test_epoch_line_without_held_out_set(self, tmp_path, capsys):
        train_main(
            [
                "citeseer", "--size", "4", "--queries", "4", "--epochs", "1",
                "--hidden-dim", "8", "--train-match-limit", "100",
                "--out", str(tmp_path / "model"),
            ]
        )
        assert "heldout=- " in capsys.readouterr().out

    def test_eval_queries_beyond_the_held_out_half_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--eval-queries"):
            train_main(
                [
                    "citeseer", "--size", "4", "--queries", "4",
                    "--eval-queries", "3", "--out", str(tmp_path / "model"),
                ]
            )

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            train_main(["imdb"])


class TestBenchCLI:
    def test_single_experiment(self, capsys):
        from repro.bench.cli import main as bench_main

        code = bench_main(["table3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table III" in out
        assert "[table3] completed" in out

    def test_unknown_experiment_rejected(self):
        from repro.bench.cli import main as bench_main

        with pytest.raises(SystemExit):
            bench_main(["fig99"])

    def test_settings_and_directory_come_from_the_environment(
        self, monkeypatch, tmp_path
    ):
        from repro.bench import cli

        runs = []
        monkeypatch.setattr(
            cli, "run_experiment",
            lambda name, harness, directory: runs.append(
                (name, harness.settings, directory)
            ),
        )
        monkeypatch.setenv("REPRO_BENCH_QUERIES", "6")
        monkeypatch.setenv("REPRO_BENCH_MATCH_LIMIT", "none")
        monkeypatch.setenv("REPRO_BENCH_SEED", "7")
        monkeypatch.setenv("REPRO_BENCH_ENUM_LIMIT", "50000")
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert cli.main(["table2"]) == 0
        monkeypatch.delenv("REPRO_RESULTS_DIR")
        assert cli.main(["table3"]) == 0
        (first, settings, directory), (second, _, no_directory) = runs
        assert (first, second) == ("table2", "table3")
        assert settings.query_count == 6
        assert settings.enum_limit == 50_000
        assert settings.match_limit is None
        assert settings.seed == 7
        assert directory == tmp_path and no_directory is None
