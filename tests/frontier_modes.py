"""Forcing the engine's per-frame choice, for the differential suites.

The one enumeration engine hands a frame at position ``n-3`` to the
bulk frontier when the order's three deepest levels are prefix-bound
and the frame is estimated to hold at least
``enumeration_batch.FRONTIER_MIN_STEPS`` steps.  That constant is not a
setting — nothing in ``src/`` takes it from a caller — so the only way
to pin *both* code paths against the recursive oracle on every instance
is to patch it: to 0, every prefix-bound frame is taken; to a value no
frame reaches, none is.  An order of any other shape is walked per node
under every mode.  The two extremes are what the retired
``"vectorized"`` and ``"iterative"`` strategies used to do, and they
keep those names here (and in the parametrized test ids).

``tests/conftest.py`` puts this directory on ``sys.path``, so any test
module can ``from frontier_modes import MODES, frontier_mode``.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager

import pytest

from repro.matching import enumeration_batch

#: mode -> the value ``FRONTIER_MIN_STEPS`` is patched to (``None``
#: leaves the shipped constant alone).
_MIN_STEPS = {"iterative": sys.maxsize, "vectorized": 0, "default": None}

#: Every differential case runs under all three.
MODES = tuple(_MIN_STEPS)


@contextmanager
def frontier_mode(mode: str | int):
    """Run the block with every ``n-3`` frame forced as the named mode
    says — or, given an integer, with the threshold at that value.

    A context manager rather than a fixture so hypothesis tests (which
    reject function-scoped fixtures) can switch modes per example.
    """
    steps = _MIN_STEPS[mode] if isinstance(mode, str) else mode
    with pytest.MonkeyPatch.context() as patch:
        if steps is not None:
            patch.setattr(enumeration_batch, "FRONTIER_MIN_STEPS", steps)
        yield


@contextmanager
def frames_seen():
    """Spy on the bulk frontier: yields a list that collects, per frame
    the walk hands over, the ``#matches`` of each chunk it produced."""
    frames: list[list[int]] = []
    frontier = enumeration_batch._frontier

    def spy(*args, **kwargs):
        chunks: list[int] = []
        frames.append(chunks)
        for matrix, senum in frontier(*args, **kwargs):
            chunks.append(int(senum.size))
            yield matrix, senum

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_batch, "_frontier", spy)
        yield frames
