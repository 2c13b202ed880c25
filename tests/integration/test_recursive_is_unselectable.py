"""Neither retired engine name is selectable anywhere it can be typed.

There is one enumeration engine.  ``"recursive"`` is a test-only oracle
(``tests/recursive_oracle.py``) and ``"vectorized"`` was a user-set
choice between two bit-identical consumers of the one DFS, which the
walk now makes per frame.  Every selection point that still takes a
name rejects both through its ordinary validation path, naming the one
choice; every selection point that only existed to carry the choice is
gone (a ``TypeError`` / an unknown CLI argument / an ignored environment
variable).  The wire is the exception, on purpose: an ``"enumerator"``
key is ignored like any other unknown key, so old clients keep working —
the outcome never depended on it.
"""

import http.client
import json

import numpy as np
import pytest

from repro import Enumerator, Matcher, MatchRequest, MatchService, RLQVOConfig
from repro.api import make_enumerator
from repro.bench import BenchSettings
from repro.bench.cli import main as bench_main
from repro.core.cli import main as train_main
from repro.errors import ModelError, RegistryError
from repro.graphs import erdos_renyi, extract_query
from repro.server import BackgroundServer
from repro.service import CatalogEntry

DATA = erdos_renyi(40, 120, 2, seed=5)
QUERY = extract_query(DATA, 4, np.random.default_rng(5))


MATCHER = Matcher(DATA)
PLAN = MATCHER.plan(QUERY)

RETIRED = ("recursive", "vectorized")

#: selection point -> (the error its validation path raises, the attempt).
SELECTION_POINTS = {
    "make_enumerator": (RegistryError, make_enumerator),
    "Matcher(enumerator=)": (
        RegistryError, lambda name: Matcher(DATA, enumerator=name)),
    "Matcher.execute(enumerator=)": (
        RegistryError, lambda name: MATCHER.execute(PLAN, enumerator=name)),
    "RLQVOConfig.enum_strategy": (
        ModelError, lambda name: RLQVOConfig(enum_strategy=name)),
}

#: Places that used to carry the choice and no longer take it at all.
REMOVED_PARAMETERS = {
    "Enumerator(strategy=)": lambda name: Enumerator(strategy=name),
    "MatchRequest(enumerator=)": lambda name: MatchRequest(
        "tiny", QUERY, enumerator=name),
    "CatalogEntry(enumerator=)": lambda name: CatalogEntry(
        name="tiny", data=DATA, enumerator=name),
    "BenchSettings(enum_strategy=)": lambda name: BenchSettings(enum_strategy=name),
}


@pytest.mark.parametrize("name", RETIRED)
@pytest.mark.parametrize("site", SELECTION_POINTS)
def test_in_process_selection_points_reject_recursive(site, name):
    error, select = SELECTION_POINTS[site]
    with pytest.raises(error) as exc_info:
        select(name)
    message = str(exc_info.value)
    assert name in message
    # The one choice is named; the other retired name is not offered.
    assert "iterative" in message
    assert all(other not in message for other in RETIRED if other != name)


@pytest.mark.parametrize("name", RETIRED)
@pytest.mark.parametrize("site", REMOVED_PARAMETERS)
def test_removed_parameters_are_type_errors(site, name):
    with pytest.raises(TypeError):
        REMOVED_PARAMETERS[site](name)


def test_bench_environment_variable_is_not_read(monkeypatch):
    settings = BenchSettings.from_env()
    monkeypatch.setenv("REPRO_BENCH_ENUM_STRATEGY", "vectorized")
    assert BenchSettings.from_env() == settings


def _post_match(background, payload: dict) -> tuple[int, dict]:
    conn = http.client.HTTPConnection(*background.address, timeout=30)
    try:
        conn.request("POST", "/match", body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


@pytest.mark.parametrize("name", RETIRED)
def test_wire_ignores_an_enumerator_key(name):
    plain = MatchRequest("tiny", QUERY, record_matches=True).to_dict()
    assert "enumerator" not in plain
    keyed = dict(plain, enumerator=name)
    assert MatchRequest.from_dict(keyed) == MatchRequest.from_dict(plain)
    with BackgroundServer(MatchService(catalog={"tiny": DATA})) as background:
        status, expected = _post_match(background, plain)
        assert status == 200
        status, served = _post_match(background, keyed)
    assert status == 200
    assert served["num_matches"] == expected["num_matches"] > 0
    for field in ("num_enumerations", "order", "matches", "limit_reached"):
        assert served[field] == expected[field]


@pytest.mark.parametrize(
    "main,argv",
    [
        (train_main, ["citeseer", "--enum-strategy", "vectorized"]),
        (bench_main, ["table3", "--enum-strategy", "vectorized"]),
    ],
    ids=["repro-train", "repro-bench"],
)
def test_cli_flag_is_an_unknown_argument(main, argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code != 0
    assert "unrecognized arguments: --enum-strategy" in capsys.readouterr().err
