"""Doctest harness for the graphs package.

CI additionally runs ``pytest --doctest-modules src/repro/graphs``;
this test keeps the same guarantee inside the plain tier-1 invocation,
so the documented examples cannot rot regardless of which entry point
ran the suite.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro.graphs

MODULES = ["repro.graphs"] + [
    info.name
    for info in pkgutil.walk_packages(repro.graphs.__path__, "repro.graphs.")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    outcome = doctest.testmod(module, verbose=False)
    assert outcome.failed == 0
