"""Packaging metadata and console entry points.

This offline environment ships setuptools without ``wheel``, so PEP 660
editable installs are unavailable; the legacy ``python setup.py
develop`` path (driven by this file) provides the editable install, and
day-to-day runs simply use ``PYTHONPATH=src`` with the module-mode
CLIs.  The ``console_scripts`` below bind the installed command names
to the same ``main`` functions the ``python -m`` invocations use:

===================  ==========================================
``repro-train``      :func:`repro.core.cli.main`
``repro-bench``      :func:`repro.bench.cli.main`
``repro-server``     :func:`repro.server.cli.main`
===================  ==========================================

The version is not written here: it is read from
``src/repro/__init__.py`` (``repro.__version__``), the one place it is
declared.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-subgraph-matching",
    version=VERSION,
    description=(
        "Reproduction of the RL-based query-vertex-ordering model for "
        "subgraph matching (ICDE 2022), with serving and benchmarking tiers"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro-train=repro.core.cli:main",
            "repro-bench=repro.bench.cli:main",
            "repro-server=repro.server.cli:main",
        ]
    },
)
