"""Reverse-mode autodiff over numpy arrays.

The paper implements its policy network in PyTorch; this environment has
no PyTorch, so :class:`Tensor` provides the minimal reverse-mode autograd
needed for the GCN/GAT/SAGE policy networks and the PPO loss.  Query
graphs have at most a few dozen vertices, so all operations are dense
``float64`` numpy — exact, fast enough, and easy to verify against
numerical gradients (see ``tests/nn``).

Design follows the classic tape-free closure style: every operation
returns a new ``Tensor`` holding a ``_backward`` closure that scatters the
output gradient to its parents; :meth:`Tensor.backward` topologically
sorts the graph and runs the closures in reverse.

There is no switch that turns graph recording off: an op records its
parents whenever one of them requires a gradient.  A caller that needs
no gradient — ordering a query, sampling a rollout — builds no
``Tensor`` at all and evaluates the policy on bare arrays
(``PolicyNetwork.evaluate``).

The backward pass keeps no gradient it is done with:

1. A stack times a matrix (``x`` of shape ``(S, n, d)`` times ``W`` of
   shape ``(d, h)``) back-propagates as one 2-D GEMM per gradient over the
   flattened stack: ``x.reshape(-1, d).T @ g.reshape(-1, h)`` for ``W``
   and ``(g.reshape(-1, h) @ W.T).reshape(x.shape)`` for ``x``.  No
   ``(S, d, h)`` stack of per-step weight gradients is built and summed.
2. A first gradient is kept as given, not copied; later ones are added
   out of place.  No ``.grad`` array is ever written in place (the
   optimizer's clipping rescales out of place too), so two tensors
   sharing one gradient array is harmless.
3. :meth:`Tensor.backward` frees a non-leaf tensor's ``.grad`` once its
   closure has run; leaves (parameters and inputs) keep theirs.

The *forward* of a stack times a matrix stays one stacked ``@``: the
policy samples its rollouts one step at a time through the same numpy
call on an ``(n, d)`` matrix, and a GEMM over the flattened ``S·n`` rows
rounds differently, which would break the bit-for-bit agreement between
sampling and PPO's first pass (ratio exactly 1.0, notably for GAT).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import ModelError

__all__ = ["Tensor"]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along broadcast (size-1) axes.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _from_op(
        data: np.ndarray, parents: Sequence["Tensor"], backward
    ) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @staticmethod
    def as_tensor(value) -> "Tensor":
        """Wrap a scalar/array/Tensor into a Tensor (no copy if already one)."""
        return value if isinstance(value, Tensor) else Tensor(value)

    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other.requires_grad:
                other._accumulate(grad)

        return Tensor._from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-Tensor.as_tensor(other))

    def __mul__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other.data)
            if other.requires_grad:
                other._accumulate(grad * self.data)

        return Tensor._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other.data)
            if other.requires_grad:
                other._accumulate(-grad * self.data / (other.data**2))

        return Tensor._from_op(out_data, (self, other), backward)

    def __matmul__(self, other) -> "Tensor":
        other = Tensor.as_tensor(other)
        out_data = self.data @ other.data
        # A stack times a matrix back-propagates through the flattened
        # stack, one 2-D GEMM per gradient (rule 1 of the module docs).
        stack_times_matrix = self.data.ndim > 2 and other.data.ndim == 2

        def backward(grad: np.ndarray) -> None:
            if stack_times_matrix:
                d, h = other.data.shape
                flat = grad.reshape(-1, h)
                if self.requires_grad:
                    self._accumulate((flat @ other.data.T).reshape(self.data.shape))
                if other.requires_grad:
                    other._accumulate(self.data.reshape(-1, d).T @ flat)
                return
            if self.requires_grad:
                self._accumulate(grad @ other.data.swapaxes(-1, -2))
            if other.requires_grad:
                other._accumulate(self.data.swapaxes(-1, -2) @ grad)

        return Tensor._from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Reductions and shaping
    # ------------------------------------------------------------------
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``None``)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad, dtype=np.float64)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._from_op(out_data, (self,), backward)

    def reshape(self, *shape: int) -> "Tensor":
        """Reshaped view sharing the autograd graph."""
        out_data = self.data.reshape(*shape)
        original = self.data.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._from_op(out_data, (self,), backward)

    def transpose(self) -> "Tensor":
        """Swap the last two axes (a stack of matrices transposes each)."""
        if self.data.ndim < 2:
            raise ModelError("transpose expects at least a 2-D tensor")
        out_data = self.data.swapaxes(-1, -2)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.swapaxes(-1, -2))

        return Tensor._from_op(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise non-linearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        """Rectified linear unit."""
        mask = self.data > 0
        out_data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(out_data, (self,), backward)

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        """Leaky ReLU (used by GAT attention logits)."""
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)
        out_data = self.data * scale

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * scale)

        return Tensor._from_op(out_data, (self,), backward)

    def exp(self) -> "Tensor":
        """Elementwise exponential (inputs clipped to ±60 for stability)."""
        out_data = np.exp(np.clip(self.data, -60, 60))

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural log (inputs floored at 1e-300)."""
        safe = np.maximum(self.data, 1e-300)
        out_data = np.log(safe)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / safe)

        return Tensor._from_op(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values; gradient passes only through the interior (à la clamp)."""
        out_data = np.clip(self.data, low, high)
        interior = (self.data > low) & (self.data < high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * interior)

        return Tensor._from_op(out_data, (self,), backward)

    def maximum(self, other) -> "Tensor":
        """Elementwise maximum (subgradient splits ties to self)."""
        other = Tensor.as_tensor(other)
        take_self = self.data >= other.data
        out_data = np.where(take_self, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * take_self)
            if other.requires_grad:
                other._accumulate(grad * ~take_self)

        return Tensor._from_op(out_data, (self, other), backward)

    def minimum(self, other) -> "Tensor":
        """Elementwise minimum (subgradient splits ties to self)."""
        other = Tensor.as_tensor(other)
        take_self = self.data <= other.data
        out_data = np.where(take_self, self.data, other.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * take_self)
            if other.requires_grad:
                other._accumulate(grad * ~take_self)

        return Tensor._from_op(out_data, (self, other), backward)

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this tensor.

        ``grad`` defaults to ones (the tensor is then usually a scalar
        loss) and is never written to.  Gradients accumulate into the
        ``.grad`` of every reachable leaf with ``requires_grad``; a
        non-leaf tensor's ``.grad`` is freed (``None``) once its closure
        has passed it on.
        """
        if not self.requires_grad:
            raise ModelError("backward() on a tensor that does not require grad")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))

        seed = np.ones_like(self.data) if grad is None else np.asarray(grad)
        self._accumulate(seed)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                node.grad = None

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

