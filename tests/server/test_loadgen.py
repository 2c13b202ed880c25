"""Tests for the closed-loop load harness and its CI gate."""

import json

import numpy as np
import pytest

from repro.graphs import erdos_renyi, extract_query
from repro.server import BackgroundServer
from repro.server import loadgen
from repro.service import MatchRequest, MatchService


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
        first = loadgen.run_load(
            host, port, bodies, requests=9, clients=3, mode="closed"
        )
        second = loadgen.run_load(
            host, port, bodies, requests=9, clients=2, mode="closed"
        )
        assert first["errors"] == 0 and second["errors"] == 0
        # Request i always carries bodies[i % len]: the summed outputs
        # are independent of client count and scheduling.
        assert first["totals"] == second["totals"]
        assert first["statuses"] == {"200": 9}

    def test_open_mode_respects_the_seeded_schedule(self, tiny_server):
        host, port, bodies = tiny_server
        report = loadgen.run_load(
            host, port, bodies,
            requests=6, clients=3, mode="open", rate=200.0, seed=7,
        )
        assert report["errors"] == 0
        assert report["mode"] == "open" and report["rate_rps"] == 200.0
        assert len(report["statuses"]) == 1

    def test_latency_percentiles_are_ordered(self, tiny_server):
        host, port, bodies = tiny_server
        report = loadgen.run_load(
            host, port, bodies, requests=8, clients=2
        )
        assert (
            0.0
            < report["latency_p50_s"]
            <= report["latency_p95_s"]
            <= report["latency_p99_s"]
        )

    def test_unknown_mode_is_rejected(self, tiny_server):
        host, port, bodies = tiny_server
        with pytest.raises(ValueError):
            loadgen.run_load(host, port, bodies, requests=1, clients=1, mode="x")


class TestCompareGate:
    def report(self, **overrides):
        base = {
            "schema": loadgen.SCHEMA,
            "mode": "closed",
            "requests": 36,
            "errors": 0,
            "latency_p95_s": 0.1,
            "calibration_s": 0.05,
            "totals": {"matches": 1000, "num_enumerations": 2000},
        }
        base.update(overrides)
        return base

    def test_identical_reports_pass(self, capsys):
        report = self.report()
        assert loadgen.compare_against_baseline(report, self.report(), 0.25)

    def test_output_drift_fails_hard(self, capsys):
        drifted = self.report(totals={"matches": 999, "num_enumerations": 2000})
        assert not loadgen.compare_against_baseline(drifted, self.report(), 0.25)
        assert "OUTPUT DRIFT" in capsys.readouterr().out

    def test_any_error_fails(self, capsys):
        assert not loadgen.compare_against_baseline(
            self.report(errors=1), self.report(), 0.25
        )

    def test_p95_regression_fails_normalized(self, capsys):
        # 3x slower on the same machine speed: over any sane tolerance.
        slow = self.report(latency_p95_s=0.3)
        assert not loadgen.compare_against_baseline(slow, self.report(), 0.25)
        assert "LATENCY REGRESSION" in capsys.readouterr().out

    def test_calibration_normalization_transfers_across_machines(self, capsys):
        # A machine half as fast (2x calibration) with 1.8x the p95 is
        # *faster* normalized — must pass.
        slow_machine = self.report(latency_p95_s=0.18, calibration_s=0.1)
        assert loadgen.compare_against_baseline(slow_machine, self.report(), 0.25)

    def test_profile_mismatch_fails(self, capsys):
        assert not loadgen.compare_against_baseline(
            self.report(requests=12), self.report(), 0.25
        )

    def test_schema_mismatch_fails(self, capsys):
        old_baseline = self.report(schema=1)
        assert not loadgen.compare_against_baseline(
            self.report(), old_baseline, 0.25
        )
        assert "PROFILE MISMATCH on schema" in capsys.readouterr().out


class TestStatsSchemaGuard:
    def test_matching_schema_passes(self):
        from repro.service.service import STATS_SCHEMA_VERSION

        loadgen.check_stats_schema({"schema": STATS_SCHEMA_VERSION}, "x")

    def test_mismatched_schema_is_a_clear_error(self):
        with pytest.raises(RuntimeError, match="stats schema 1.*speaks schema"):
            loadgen.check_stats_schema({"schema": 1}, "http://h:1/stats")

    def test_missing_schema_is_a_clear_error(self):
        # A pre-versioning server has no field at all: the guard must
        # name the problem instead of KeyError-ing downstream.
        with pytest.raises(RuntimeError, match="stats schema None"):
            loadgen.check_stats_schema({"requests": 3}, "http://h:1/stats")


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
        cheap = loadgen._tier_percentiles(samples, "cheap")
        assert cheap["offered"] == 4 and cheap["served"] == 3
        assert cheap["latency_p50_s"] == 0.2
        assert cheap["latency_p95_s"] == 0.4

    def test_served_outputs_exclude_timeouts_and_failures(self):
        samples = [
            self.sample(tag="a"),
            self.sample(tag="b", timed_out=True),
            self.sample(tag="c", status=429, code="rejected"),
        ]
        outputs = loadgen._served_outputs(samples)
        assert set(outputs) == {"a"}
        assert outputs["a"] == (5, 9)

    def test_leg_summary_aggregates_statuses_and_codes(self):
        samples = [
            self.sample(),
            self.sample(tag="cheap-1", status=429, code="rejected"),
            self.sample(tag="cheap-2", status=504, code="deadline_expired"),
        ]
        summary = loadgen._leg_summary(samples)
        assert summary["statuses"] == {"200": 1, "429": 1, "504": 1}
        assert summary["codes"] == {"deadline_expired": 1, "rejected": 1}


class TestCli:
    def test_self_host_quick_run_and_self_compare(self, tmp_path, monkeypatch):
        # Keep the in-test profile tiny: the full quick profile belongs
        # to CI's serve-smoke job.
        out = tmp_path / "BENCH_serving.json"
        code = loadgen.main([
            "--self-host", "--dataset", "citeseer",
            "--queries", "2", "--requests", "6", "--clients", "2",
            "--match-limit", "500",
            "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema"] == loadgen.SCHEMA
        assert report["requests"] == 6 and report["errors"] == 0
        assert report["totals"]["matches"] > 0
        assert report["phases"]["enum_time_s"] >= 0.0
        # Warmup absorbs the cold planning: the measured window is
        # steady-state, so phase planning time may legitimately be 0.
        assert report["phases"]["filter_time_s"] >= 0.0
        assert report["warmup_requests"] >= 1
        assert report["latency_p99_s"] >= report["latency_p50_s"] > 0.0
        # Gate the run against its own report: must pass.
        again = tmp_path / "again.json"
        code = loadgen.main([
            "--self-host", "--dataset", "citeseer",
            "--queries", "2", "--requests", "6", "--clients", "2",
            "--match-limit", "500",
            "--output", str(again), "--compare", str(out),
            "--tolerance", "5.0",
        ])
        assert code == 0
        # Tampered totals must fail the gate.
        report["totals"]["matches"] += 1
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(report))
        code = loadgen.main([
            "--self-host", "--dataset", "citeseer",
            "--queries", "2", "--requests", "6", "--clients", "2",
            "--match-limit", "500",
            "--output", str(tmp_path / "x.json"), "--compare", str(tampered),
            "--tolerance", "5.0",
        ])
        assert code == 1

    @pytest.mark.parametrize("failing", [None, "_await_healthy", "check_stats_schema"])
    def test_self_hosted_service_is_closed_on_every_way_out(
        self, tmp_path, monkeypatch, failing
    ):
        # A self-hosted service left open keeps its scheduler and
        # process pool alive into interpreter shutdown (the pool's
        # monitor respawns workers there: spawn_main tracebacks after
        # the report).  main() must close it after the measured run and
        # on the early `return 1` paths alike.
        closed = []
        real_close = MatchService.close

        def recording_close(service):
            closed.append(service)
            real_close(service)

        def fail(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(MatchService, "close", recording_close)
        if failing is not None:
            monkeypatch.setattr(loadgen, failing, fail)
        code = loadgen.main([
            "--self-host", "--dataset", "citeseer", "--scheduler-executor", "thread",
            "--queries", "2", "--requests", "4", "--clients", "2",
            "--match-limit", "200", "--output", str(tmp_path / "out.json"),
        ])
        assert code == (0 if failing is None else 1)
        assert len(closed) == 1
        assert closed[0].scheduler is not None


def test_calibration_load_is_the_shared_definition():
    """The serving gate normalizes on ``repro.bench.calibrate``'s
    reference load, the single home of that definition (the matching
    benchmark divided by it too, until its wall-clock budgets went)."""
    from repro.bench.calibrate import calibrate

    assert loadgen._calibrate is calibrate
