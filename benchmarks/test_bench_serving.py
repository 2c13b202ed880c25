"""Tests for the serving smoke benchmark and its CI gate."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs import erdos_renyi, extract_query
from repro.server import BackgroundServer
from repro.service import MatchRequest, MatchService

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_serving  # noqa: E402


@pytest.fixture(scope="module")
def tiny_server():
    data = erdos_renyi(150, 450, 3, seed=11)
    service = MatchService(catalog={"tiny": data})
    rng = np.random.default_rng(2)
    bodies = [
        json.dumps(
            MatchRequest(
                "tiny", extract_query(data, 4, rng), match_limit=200, tag=f"q{i}"
            ).to_dict()
        ).encode()
        for i in range(3)
    ]
    with BackgroundServer(service) as background:
        host, port = background.address
        yield host, port, bodies


class TestRunLoad:
    def test_closed_loop_totals_are_deterministic(self, tiny_server):
        host, port, bodies = tiny_server
        first = bench_serving.run_load(host, port, bodies, requests=9, clients=3)
        second = bench_serving.run_load(host, port, bodies, requests=9, clients=2)
        assert first["errors"] == 0 and second["errors"] == 0
        # Request i always carries bodies[i % len]: the summed outputs
        # are independent of client count and scheduling.
        assert first["totals"] == second["totals"]
        assert first["statuses"] == {"200": 9}

    def test_latency_percentiles_are_ordered(self, tiny_server):
        host, port, bodies = tiny_server
        report = bench_serving.run_load(host, port, bodies, requests=8, clients=2)
        assert (
            0.0
            < report["latency_p50_s"]
            <= report["latency_p95_s"]
            <= report["latency_p99_s"]
        )


class TestCompareGate:
    def report(self, **overrides):
        base = {
            "schema": bench_serving.SCHEMA,
            "requests": 36,
            "queries": 6,
            "match_limit": 10_000,
            "clients": 4,
            "errors": 0,
            "totals": {"matches": 1000, "num_enumerations": 2000},
        }
        base.update(overrides)
        return base

    def test_identical_reports_pass(self, capsys):
        assert bench_serving.compare_against_baseline(self.report(), self.report())

    def test_output_drift_fails_hard(self, capsys):
        drifted = self.report(totals={"matches": 999, "num_enumerations": 2000})
        assert not bench_serving.compare_against_baseline(drifted, self.report())
        assert "OUTPUT DRIFT" in capsys.readouterr().out

    def test_any_error_fails(self, capsys):
        assert not bench_serving.compare_against_baseline(
            self.report(errors=1), self.report()
        )

    @pytest.mark.parametrize("field,theirs", [
        ("requests", 12),
        ("queries", 8),
        ("match_limit", 500),
        ("clients", 2),
    ])
    def test_profile_mismatch_fails(self, capsys, field, theirs):
        # Equal totals do not rescue a baseline of another schedule.
        baseline = self.report(**{field: theirs})
        assert not bench_serving.compare_against_baseline(self.report(), baseline)
        assert f"PROFILE MISMATCH on {field}" in capsys.readouterr().out

    def test_schema_mismatch_fails(self, capsys):
        old_baseline = self.report(schema=1)
        assert not bench_serving.compare_against_baseline(self.report(), old_baseline)
        assert "PROFILE MISMATCH on schema" in capsys.readouterr().out

    @pytest.mark.parametrize("missing", ["queries", "totals"])
    def test_missing_baseline_field_is_a_mismatch_not_a_traceback(
        self, capsys, missing
    ):
        baseline = self.report()
        del baseline[missing]
        assert not bench_serving.compare_against_baseline(self.report(), baseline)
        assert f"PROFILE MISMATCH on {missing}" in capsys.readouterr().out


class TestOverloadHelpers:
    def sample(self, **overrides):
        base = {
            "tag": "cheap-0", "tier": "cheap", "status": 200,
            "latency_s": 0.1, "code": None, "error": None,
            "retry_after": None, "num_matches": 5, "num_enumerations": 9,
            "timed_out": False,
        }
        base.update(overrides)
        return base

    def test_tier_percentiles_count_only_served(self):
        samples = [
            self.sample(latency_s=0.1),
            self.sample(tag="cheap-1", latency_s=0.2),
            self.sample(tag="cheap-2", latency_s=0.4),
            self.sample(tag="cheap-3", status=429, code="rejected"),
            self.sample(tag="heavy-0", tier="heavy", latency_s=9.0),
        ]
        cheap = bench_serving._tier_percentiles(samples, "cheap")
        assert cheap["offered"] == 4 and cheap["served"] == 3
        assert cheap["latency_p50_s"] == 0.2
        assert cheap["latency_p95_s"] == 0.4

    def test_served_outputs_exclude_timeouts_and_failures(self):
        samples = [
            self.sample(tag="a"),
            self.sample(tag="b", timed_out=True),
            self.sample(tag="c", status=429, code="rejected"),
        ]
        outputs = bench_serving._served_outputs(samples)
        assert set(outputs) == {"a"}
        assert outputs["a"] == (5, 9)

    def test_leg_summary_aggregates_statuses_and_codes(self):
        samples = [
            self.sample(),
            self.sample(tag="cheap-1", status=429, code="rejected"),
            self.sample(tag="cheap-2", status=504, code="deadline_expired"),
        ]
        summary = bench_serving._leg_summary(samples)
        assert summary["statuses"] == {"200": 1, "429": 1, "504": 1}
        assert summary["codes"] == {"deadline_expired": 1, "rejected": 1}


#: A tiny profile: the full one belongs to CI's serve-smoke job.
TINY = ["--queries", "2", "--requests", "6", "--clients", "2", "--match-limit", "500"]


class TestCli:
    def test_run_and_self_compare(self, tmp_path):
        out = tmp_path / "BENCH_serving.json"
        assert bench_serving.main([*TINY, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema"] == bench_serving.SCHEMA
        assert report["requests"] == 6 and report["errors"] == 0
        assert report["totals"]["matches"] > 0
        assert report["warmup_requests"] >= 1
        assert report["latency_p99_s"] >= report["latency_p50_s"] > 0.0
        # Gate the run against its own report: must pass.
        again = tmp_path / "again.json"
        code = bench_serving.main(
            [*TINY, "--output", str(again), "--compare", str(out)]
        )
        assert code == 0
        # Tampered totals must fail the gate.
        report["totals"]["matches"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(report))
        code = bench_serving.main(
            [*TINY, "--output", str(tmp_path / "x.json"), "--compare", str(tampered)]
        )
        assert code == 1

    @pytest.mark.parametrize("failing", [None, "_await_healthy"])
    def test_self_hosted_service_is_closed_on_every_way_out(
        self, tmp_path, monkeypatch, failing
    ):
        # A service left open keeps its scheduler and process pool alive
        # into interpreter shutdown (the pool's monitor respawns workers
        # there: spawn_main tracebacks after the report).  main() must
        # close it after the measured run and on the early `return 1`
        # path alike.
        closed = []
        real_close = MatchService.close

        def recording_close(service):
            closed.append(service)
            real_close(service)

        def fail(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(MatchService, "close", recording_close)
        if failing is not None:
            monkeypatch.setattr(bench_serving, failing, fail)
        code = bench_serving.main([
            "--scheduler-executor", "thread",
            "--queries", "2", "--requests", "4", "--clients", "2",
            "--match-limit", "200", "--output", str(tmp_path / "out.json"),
        ])
        assert code == (0 if failing is None else 1)
        assert len(closed) == 1
        assert closed[0].scheduler is not None
