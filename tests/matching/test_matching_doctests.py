"""Doctest harness for the matching package.

CI additionally runs ``pytest --doctest-modules src/repro/matching``;
this test keeps the same guarantee inside the plain tier-1 invocation,
so the documented examples cannot rot regardless of which entry point
ran the suite.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro.matching
from repro.matching import block

MODULES = ["repro.matching"] + [
    info.name
    for info in pkgutil.walk_packages(repro.matching.__path__, "repro.matching.")
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    outcome = doctest.testmod(module, verbose=False)
    assert outcome.failed == 0


def test_the_wire_kernel_is_documented_by_example():
    sources = [
        example.source
        for test in doctest.DocTestFinder().find(block)
        for example in test.examples
    ]
    assert any(".to_json()" in source for source in sources)
