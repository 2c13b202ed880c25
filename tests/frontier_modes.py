"""Forcing the engine's per-frame choice, for the differential suites.

The one enumeration loop calls the bulk frontier on a frame at position
``n-3`` when the order's three deepest levels are prefix-bound and the
frame is estimated to hold at least
``enumeration_batch.FRONTIER_MIN_STEPS`` steps.  That constant is not a
setting — nothing in ``src/`` takes it from a caller — so the only way
to pin *both* code paths against the recursive oracle on every instance
is to patch it: to 0, every prefix-bound frame is taken; to a value no
frame reaches, none is.  An order of any other shape is walked per node
under every mode.  The two extremes are what the retired
``"vectorized"`` and ``"iterative"`` strategies used to do, and they
keep those names here (and in the parametrized test ids).

``tests/conftest.py`` puts this directory on ``sys.path``, so any test
module can ``from frontier_modes import MODES, frontier_mode``.  The
frontier's chunk size can be forced the same way (``frontier_chunk``),
and so can the deadline check cadence (``check_every``).
"""

from __future__ import annotations

import inspect
import sys
from contextlib import contextmanager

import pytest

from repro.matching import enumeration_batch

#: mode -> the value ``FRONTIER_MIN_STEPS`` is patched to (``None``
#: leaves the shipped constant alone).
_MIN_STEPS = {"iterative": sys.maxsize, "vectorized": 0, "default": None}

#: Every differential case runs under all three.
MODES = tuple(_MIN_STEPS)

#: Frontier chunk sizes that split a test-sized frame into many row
#: groups and leaf chunks, and the shipped size, which does not.
CHUNKS = (1, 2, 3, 7, enumeration_batch.FRONTIER_CHUNK)


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
def frontier_chunk(chunk: int):
    """Run the block with ``FRONTIER_CHUNK`` at ``chunk`` flat entries.

    At the shipped 2**16 a test-sized frame is one row group and one
    leaf chunk, so only a small chunk reaches the frontier's bookkeeping
    across groups and chunks — and the match-limit cut made there.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_batch, "FRONTIER_CHUNK", chunk)
        yield


@contextmanager
def check_every(steps: int):
    """Run the block with the walk reading the clock every ``steps``
    ``#enum`` steps (``enumeration_batch.CHECK_EVERY``), so an expired
    deadline fires at a chosen point instead of the 2048th step."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_batch, "CHECK_EVERY", steps)
        yield


@contextmanager
def frames_seen():
    """Spy on the bulk frontier: yields a list that collects, per frame
    the walk calls it on, the ``#matches`` the frontier found there."""
    frames: list[int] = []
    frontier = enumeration_batch._frontier
    signature = inspect.signature(frontier)

    def spy(*args, **kwargs):
        found = signature.bind(*args, **kwargs).arguments["found"]
        result = frontier(*args, **kwargs)
        frames.append(result[1] - found)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(enumeration_batch, "_frontier", spy)
        yield frames
