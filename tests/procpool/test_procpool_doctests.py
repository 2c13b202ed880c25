"""Doctest harness for the procpool package.

CI additionally runs ``pytest --doctest-modules src/repro/procpool``;
this test keeps the same guarantee inside the plain tier-1 invocation,
so the documented examples cannot rot regardless of which entry point
ran the suite.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro.procpool

MODULES = ["repro.procpool"] + [
    f"repro.procpool.{info.name}"
    for info in pkgutil.iter_modules(repro.procpool.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    outcome = doctest.testmod(module, verbose=False)
    assert outcome.failed == 0

