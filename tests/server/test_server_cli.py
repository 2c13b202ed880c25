"""Tests for ``repro-server``'s scheduler flag family.

The flags map one-to-one onto :class:`SchedulerConfig`; their defaults
are read from it, so a parse of ``--scheduler`` alone must rebuild the
default config exactly.
"""

import pytest

from repro.server import cli
from repro.server.cli import _build_parser, scheduler_config_from_args
from repro.service import SchedulerConfig

#: Flags that left with the scheduler knobs no caller set, each with a
#: value it used to take.
RETIRED_FLAGS = [
    ("--default-deadline", "1.5"),
    ("--tenant-cost-budget", "40.0"),
    ("--degrade-match-limit", "9"),
    ("--degrade-time-limit", "0.25"),
    ("--degrade-orderer", "ri"),
]


def parse(argv):
    return _build_parser().parse_args(argv)


class TestSchedulerFlags:
    def test_without_scheduler_flag_there_is_no_scheduler(self):
        assert scheduler_config_from_args(parse(["--sched-workers", "8"])) is None

    def test_defaults_are_the_scheduler_config_defaults(self):
        assert scheduler_config_from_args(parse(["--scheduler"])) == SchedulerConfig()

    def test_every_flag_reaches_the_config(self):
        config = scheduler_config_from_args(parse([
            "--scheduler", "--sched-workers", "3",
            "--scheduler-executor", "process", "--process-workers", "5",
            "--queue-capacity", "7", "--tenant-max-inflight", "2",
            "--no-degrade",
        ]))
        assert config == SchedulerConfig(
            workers=3, executor="process", process_workers=5,
            queue_capacity=7, tenant_max_inflight=2, retry_degrade=False,
        )

    def test_serving_benchmark_command_line_parses(self):
        args = parse([
            "--host", "127.0.0.1", "--port", "0", "--datasets", "citeseer",
            "--scheduler", "--sched-workers", "2", "--cache-bytes", "1048576",
        ])
        assert (args.port, args.datasets, args.cache_bytes) == (0, "citeseer", 1048576)
        assert scheduler_config_from_args(args) == SchedulerConfig(workers=2)

    def test_retired_durable_queue_flag_is_unknown(self, capsys):
        with pytest.raises(SystemExit):
            parse(["--scheduler", "--durable-queue", "journal.sqlite"])
        assert "--durable-queue" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", RETIRED_FLAGS, ids=[flag for flag, _ in RETIRED_FLAGS]
    )
    def test_retired_flag_exits_2_and_serves_nothing(
        self, monkeypatch, capsys, flag, value
    ):
        built = []
        monkeypatch.setattr(cli, "MatchService", lambda **kw: built.append(kw))
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--port", "0", "--scheduler", flag, value])
        assert exit_info.value.code == 2
        out, err = capsys.readouterr()
        assert flag in err and "listening" not in out
        assert built == []


class TestSchedulerValidation:
    @pytest.mark.parametrize("argv, message", [
        (["--sched-workers", "0"], "SchedulerConfig.workers must be"),
        (["--process-workers", "0"], "SchedulerConfig.process_workers must be"),
        (["--queue-capacity", "0"], "SchedulerConfig.queue_capacity must be"),
        (["--tenant-max-inflight", "0"],
         "SchedulerConfig.tenant_max_inflight must be at least 1 or None, "
         "got 0"),
    ], ids=["sched-workers", "process-workers", "queue-capacity",
            "tenant-max-inflight"])
    def test_bad_value_exits_1_with_the_message(
        self, monkeypatch, capsys, argv, message
    ):
        built = []
        monkeypatch.setattr(cli, "MatchService", lambda **kw: built.append(kw))
        assert cli.main(["--port", "0", "--scheduler", *argv]) == 1
        out, err = capsys.readouterr()
        assert message in err and "listening" not in out
        assert built == []
