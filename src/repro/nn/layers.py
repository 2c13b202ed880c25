"""Module base class and dense layers.

Mirrors the minimal slice of the ``torch.nn`` API the policy network
needs: parameter registration/iteration and state dicts.  A module has
one mode: no layer behaves differently in training and at inference.

A layer the policy consults without a gradient also has ``evaluate``:
its ``forward`` on bare ``ndarray``s — the numpy calls the ``Tensor`` ops
make, in their order, so the two agree bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterator

import numpy as np

from repro.errors import ModelError
from repro.nn import init as nn_init
from repro.nn.tensor import Tensor

__all__ = ["Module", "Linear"]


class Module:
    """Base class with parameter registration and state-dict support."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Tensor]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()

    # -- registration --------------------------------------------------
    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        """Register ``tensor`` as a trainable parameter called ``name``."""
        tensor.requires_grad = True
        self._parameters[name] = tensor
        return tensor

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        super().__setattr__(name, value)

    # -- iteration -----------------------------------------------------
    def parameters(self) -> Iterator[Tensor]:
        """All trainable parameters, submodules included (depth-first)."""
        yield from self._parameters.values()
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """``(dotted-name, parameter)`` pairs for state dicts."""
        for name, p in self._parameters.items():
            yield prefix + name, p
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix + mod_name + ".")

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # -- modes ----------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """No-op returning ``self``: a module has one mode.  Kept only
        because ``benchmarks/e2e/wl_rlqvo.py::mirror_epoch`` calls it;
        it goes with that mirror."""
        return self

    def eval(self) -> "Module":
        """No-op returning ``self``, kept for the same caller as
        :meth:`train`."""
        return self

    # -- state dict -------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters in-place; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ModelError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != p.data.shape:
                raise ModelError(
                    f"parameter {name}: shape {value.shape} != {p.data.shape}"
                )
            p.data = value.copy()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.data.size for p in self.parameters())

    def parameter_bytes(self) -> int:
        """In-memory bytes of all parameters (Table IV model space)."""
        return sum(p.data.nbytes for p in self.parameters())

    # -- call ------------------------------------------------------------
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract hook
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(nn_init.xavier_uniform(in_features, out_features, rng))
        )
        self.bias = (
            self.register_parameter("bias", Tensor(nn_init.zeros(out_features)))
            if bias
            else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """:meth:`forward` on a bare array (no graph, the same bits)."""
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out
