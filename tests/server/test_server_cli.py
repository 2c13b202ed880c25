"""Tests for ``repro-server``'s scheduler flag family.

The flags map one-to-one onto :class:`SchedulerConfig`; their defaults
are read from it, so a parse of ``--scheduler`` alone must rebuild the
default config exactly.
"""

import pytest

from repro.server.cli import _build_parser, scheduler_config_from_args
from repro.service import SchedulerConfig


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
            "--queue-capacity", "7", "--default-deadline", "1.5",
            "--tenant-max-inflight", "2", "--tenant-cost-budget", "40.0",
            "--no-degrade", "--degrade-match-limit", "9",
            "--degrade-time-limit", "0.25", "--degrade-orderer", "ri",
        ]))
        assert config == SchedulerConfig(
            workers=3, executor="process", process_workers=5,
            queue_capacity=7, default_deadline_s=1.5, tenant_max_inflight=2,
            tenant_cost_budget=40.0, retry_degrade=False,
            degrade_match_limit=9, degrade_time_limit=0.25,
            degrade_orderer="ri",
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
