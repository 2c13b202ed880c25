"""``"recursive"`` is not an engine name anywhere it can be typed.

The recursive enumerator is a test-only oracle (``tests/
recursive_oracle.py``); every production selection point must reject the
name through its ordinary validation path, naming the two valid engines.
"""

import http.client
import json

import numpy as np
import pytest

from repro import Enumerator, Matcher, MatchRequest, MatchService, RLQVOConfig
from repro.api import enumerator_registry, make_enumerator
from repro.bench import BenchSettings, profile_query
from repro.bench.cli import main as bench_main
from repro.core.cli import main as train_main
from repro.errors import (
    DatasetError,
    EnumerationError,
    ModelError,
    RegistryError,
    ReproError,
)
from repro.graphs import erdos_renyi, extract_query
from repro.server import BackgroundServer
from repro.service import CatalogEntry, DatasetCatalog
from repro.service.requests import error_code_for

DATA = erdos_renyi(40, 120, 2, seed=5)
QUERY = extract_query(DATA, 4, np.random.default_rng(5))


MATCHER = Matcher(DATA)
PLAN = MATCHER.plan(QUERY)


def _bench_env(monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_ENUM_STRATEGY", "recursive")
    return BenchSettings.from_env()


def _catalog_entry(_):
    entry = CatalogEntry(name="tiny", data=DATA, enumerator="recursive")
    return DatasetCatalog({"tiny": entry}).matcher("tiny")


#: selection point -> (the error its validation path raises, the attempt).
SELECTION_POINTS = {
    "Enumerator(strategy=)": (
        EnumerationError, lambda _: Enumerator(strategy="recursive")),
    "make_enumerator": (RegistryError, lambda _: make_enumerator("recursive")),
    "enumerator_registry": (
        RegistryError, lambda _: enumerator_registry.create("recursive")),
    "Matcher(enumerator=)": (
        RegistryError, lambda _: Matcher(DATA, enumerator="recursive")),
    "Matcher.execute(enumerator=)": (
        RegistryError, lambda _: MATCHER.execute(PLAN, enumerator="recursive")),
    "Matcher.stream_plan(enumerator=)": (
        RegistryError, lambda _: MATCHER.stream_plan(PLAN, enumerator="recursive")),
    "CatalogEntry.enumerator": (RegistryError, _catalog_entry),
    "RLQVOConfig.enum_strategy": (
        ModelError, lambda _: RLQVOConfig(enum_strategy="recursive")),
    "BenchSettings.enum_strategy": (
        DatasetError, lambda _: BenchSettings(enum_strategy="recursive")),
    "REPRO_BENCH_ENUM_STRATEGY": (DatasetError, _bench_env),
    "profile_query(enum_strategy=)": (
        EnumerationError,
        lambda _: profile_query(QUERY, DATA, enum_strategy="recursive")),
}


@pytest.mark.parametrize("site", SELECTION_POINTS)
def test_in_process_selection_points_reject_recursive(site, monkeypatch):
    error, select = SELECTION_POINTS[site]
    with pytest.raises(error) as exc_info:
        select(monkeypatch)
    message = str(exc_info.value)
    assert "recursive" in message
    assert "iterative" in message and "vectorized" in message


def test_service_submit_is_a_validation_error():
    service = MatchService(catalog={"tiny": DATA})
    request = MatchRequest("tiny", QUERY, enumerator="recursive")
    with pytest.raises(ReproError) as exc_info:
        service.submit(request)
    assert error_code_for(exc_info.value) == "validation"
    (captured,) = service.submit_many([request])
    assert captured.error_code == "validation"
    assert "vectorized" in captured.error


def test_http_match_is_a_400_envelope():
    service = MatchService(catalog={"tiny": DATA})
    body = json.dumps(MatchRequest("tiny", QUERY, enumerator="recursive").to_dict())
    with BackgroundServer(service) as background:
        conn = http.client.HTTPConnection(*background.address, timeout=30)
        try:
            conn.request("POST", "/match", body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
    assert response.status == 400
    assert payload["code"] == "validation"
    assert "iterative" in payload["error"] and "vectorized" in payload["error"]


@pytest.mark.parametrize(
    "main,argv",
    [
        (train_main, ["citeseer", "--enum-strategy", "recursive"]),
        (bench_main, ["table3", "--enum-strategy", "recursive"]),
    ],
    ids=["repro-train", "repro-bench"],
)
def test_cli_flags_reject_recursive_and_print_the_choices(main, argv, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code != 0
    usage = capsys.readouterr().err
    assert "'iterative', 'vectorized'" in usage
