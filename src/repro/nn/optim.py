"""Gradient-based optimizers (Adam is the paper's trainer, lr = 1e-3)."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm"]


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, parameters, lr: float):
        self.parameters: list[Tensor] = list(parameters)
        if not self.parameters:
            raise ModelError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ModelError("learning rate must be positive")
        self.lr = lr

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError


class SGD(Optimizer):
    """Plain (optionally momentum) stochastic gradient descent."""

    def __init__(self, parameters, lr: float = 1e-2, momentum: float = 0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        for p, vel in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            if self.momentum > 0:
                vel *= self.momentum
                vel += p.grad
                p.data -= self.lr * vel
            else:
                p.data -= self.lr * p.grad


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def step(self) -> None:
        """Apply one Adam update using the accumulated gradients."""
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self._t
        bias2 = 1.0 - b2**self._t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay > 0:
                grad = grad + self.weight_decay * p.data
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_grad_norm(parameters, max_norm: float | None) -> float:
    """Scale the gradients in place so their global norm is at most
    ``max_norm``; returns the norm before clipping (``None`` only measures)."""
    grads = [p.grad for p in parameters if p.grad is not None]
    norm = sum(float((grad**2).sum()) for grad in grads) ** 0.5
    if max_norm is not None and norm > max_norm and norm > 0:
        for grad in grads:
            grad *= max_norm / norm
    return norm
