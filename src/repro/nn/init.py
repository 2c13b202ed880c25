"""Weight initialization schemes."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["xavier_uniform", "zeros"]


def xavier_uniform(
    fan_in: int, fan_out: int, rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform ``U(-a, a)`` with ``a = gain·sqrt(6/(fi+fo))``."""
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def zeros(*shape: int) -> np.ndarray:
    """Zero array (bias initialization)."""
    return np.zeros(shape)
