"""The committed ``results/counts.json`` holds what the code computes.

``REPRO_RESULTS_DIR=results repro-bench all`` writes the file.  Tables
II–IV need no training, so their entries are recomputed here at the
settings the file records and compared with it; the file is only read.
"""

import json
from pathlib import Path

import pytest

from repro.bench import ALL_EXPERIMENTS, BenchSettings, Harness
from repro.bench.reporting import count_entries

COUNTS = Path(__file__).resolve().parents[2] / "results" / "counts.json"


@pytest.fixture(scope="module")
def counts():
    return json.loads(COUNTS.read_text())


@pytest.mark.parametrize("name", ["table2", "table3", "table4"])
def test_committed_entries_equal_a_recomputation(counts, name, capsys):
    harness = Harness(BenchSettings(**counts["settings"]))
    recorded = {
        key: value for key, value in counts.items() if key.split("/")[0] == name
    }
    assert recorded
    assert count_entries(name, ALL_EXPERIMENTS[name](harness)) == recorded


def test_one_ri_across_the_record(counts):
    # Both cells are GQL + RI over yeast's Q16 eval queries: fig5 through
    # the harness's Matcher, the ablation through ``RIOrderer`` directly.
    # They agree only if every path breaks RI's ties the same way.
    assert counts["fig5/yeast/hybrid/16"]["enum"] == counts["ablation_design"]["ri"]
