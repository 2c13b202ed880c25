"""Tests for reporting helpers."""

import json
import math

import pytest

from repro.bench import (
    BenchSettings,
    format_seconds,
    format_table,
    geometric_mean,
    percentile_series,
)
from repro.bench.reporting import count_entries, record_counts


class TestFormatSeconds:
    def test_ranges(self):
        assert format_seconds(5e-7) == "0.5µs"
        assert format_seconds(2.5e-3) == "2.5ms"
        assert format_seconds(1.75) == "1.75s"

    def test_nan(self):
        assert format_seconds(float("nan")) == "-"


class TestFormatTable:
    def test_alignment_and_title(self):
        text = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        # All data rows have equal width.
        assert len(lines[3]) == len(lines[4])

    def test_empty_rows(self):
        text = format_table(["h1", "h2"], [])
        assert "h1" in text


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 100.0]) == pytest.approx(10.0)

    def test_floor_guards_zero(self):
        assert geometric_mean([0.0, 1.0]) > 0.0

    def test_empty_is_nan(self):
        assert math.isnan(geometric_mean([]))


class TestPercentileSeries:
    def test_monotone_output(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        series = percentile_series(values, (0, 50, 100))
        assert series[0][1] == 1.0
        assert series[-1][1] == 5.0
        assert series[0][1] <= series[1][1] <= series[2][1]

    def test_empty_values(self):
        series = percentile_series([], (50,))
        assert math.isnan(series[0][1])


class TestCounts:
    def test_entries_keep_integers_only(self):
        payload = {
            "citeseer": {
                "rlqvo": {
                    "time": 0.5, "enum": 12, "solved_enum": (4, None),
                    "percentiles": [(50, 0.1)],
                },
            },
            "queries": [{"opt": {"num_enumerations": 3, "enum_time": 0.1}}],
            "geomean": {"opt": 0.2},
            "avg_degree": 3.1,
        }
        assert count_entries("fig", payload) == {
            "fig/citeseer/rlqvo": {"enum": 12, "solved_enum": [4, None]},
            "fig/queries/0/opt": {"num_enumerations": 3},
        }

    def test_one_file_holds_one_setting(self, tmp_path):
        small = BenchSettings(query_count=2)
        record_counts(tmp_path, small, "fig1", {"a": {"enum": 1}})
        record_counts(tmp_path, small, "fig10", {"a": {"enum": 2}})
        record_counts(tmp_path, small, "fig1", {"b": {"enum": 3}})
        text = (tmp_path / "counts.json").read_text()
        assert text.endswith("}\n")
        counts = json.loads(text)
        assert list(counts) == sorted(counts)
        assert counts == {
            "fig1/b": {"enum": 3},
            "fig10/a": {"enum": 2},
            "settings": counts["settings"],
        }
        assert counts["settings"]["query_count"] == 2
        record_counts(tmp_path, BenchSettings(), "fig10", {"a": {"enum": 2}})
        counts = json.loads((tmp_path / "counts.json").read_text())
        assert set(counts) == {"settings", "fig10/a"}
        assert counts["settings"]["query_count"] == BenchSettings().query_count
