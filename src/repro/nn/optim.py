"""The paper's optimizer, Adam (lr = 1e-3), and gradient-norm clipping."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.tensor import Tensor

__all__ = ["Adam", "clip_grad_norm"]

#: Adam's moment decay rates and denominator floor (Kingma & Ba's
#: defaults; no caller sets them).
BETA1, BETA2 = 0.9, 0.999
EPS = 1e-8


class Adam:
    """Adam (Kingma & Ba) with bias correction over an explicit parameter list."""

    def __init__(self, parameters, lr: float = 1e-3):
        self.parameters: list[Tensor] = list(parameters)
        if not self.parameters:
            raise ModelError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ModelError("learning rate must be positive")
        self.lr = lr
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Apply one Adam update using the accumulated gradients."""
        self._t += 1
        bias1 = 1.0 - BETA1**self._t
        bias2 = 1.0 - BETA2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            m *= BETA1
            m += (1 - BETA1) * grad
            v *= BETA2
            v += (1 - BETA2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


def clip_grad_norm(parameters, max_norm: float | None) -> float:
    """Rescale the gradients so their global norm is at most ``max_norm``;
    returns the norm before clipping (``None`` only measures).

    Each ``p.grad`` is replaced by a scaled copy, never written in place:
    two parameters may share one gradient array (see ``nn.tensor``).
    """
    parameters = [p for p in parameters if p.grad is not None]
    norm = sum(float((p.grad**2).sum()) for p in parameters) ** 0.5
    if max_norm is not None and norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in parameters:
            p.grad = p.grad * scale
    return norm
