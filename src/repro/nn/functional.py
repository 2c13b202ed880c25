"""Functional ops composed from :class:`~repro.nn.tensor.Tensor` primitives.

Notably the masked softmax of Eq. 4 — probability scores of vertices
outside the action space are masked out before normalization — plus the
entropy used by the exploration reward (Sec. III-C) and the concat
helper used by the GNN variants.

The ``*_array`` functions are the same arithmetic on bare ``ndarray``s
for callers that need no gradient (see ``PolicyNetwork.evaluate``); each
sits under the ``Tensor`` spelling it must stay bit-equal to.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.nn.tensor import Tensor

__all__ = [
    "masked_softmax",
    "masked_softmax_array",
    "entropy",
    "entropy_array",
    "relu_array",
    "concat",
]

_NEG_INF = -1e30


def _checked_mask(mask: np.ndarray, shape: tuple[int, ...], axis: int) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ModelError(f"mask shape {mask.shape} != logits shape {shape}")
    if not mask.any(axis=axis).all():
        raise ModelError("masked_softmax: empty action space")
    return mask


def masked_softmax(logits: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over positions where ``mask`` is True (Eq. 4).

    Masked-out entries get exactly zero probability and receive no
    gradient.  Raises if the mask is all-False along the axis.
    """
    mask = _checked_mask(mask, logits.data.shape, axis)
    neg = Tensor(np.where(mask, 0.0, _NEG_INF))
    shifted_logits = logits + neg
    shifted = shifted_logits - np.max(shifted_logits.data, axis=axis, keepdims=True)
    exps = shifted.exp() * Tensor(mask.astype(np.float64))
    total = exps.sum(axis=axis, keepdims=True)
    return exps / total


def masked_softmax_array(
    logits: np.ndarray, mask: np.ndarray, axis: int = -1
) -> np.ndarray:
    """:func:`masked_softmax` on a bare array: the numpy calls its
    ``Tensor`` ops make, in their order (``a - b`` there is ``a + (-b)``,
    ``exp`` clips to ±60), so the result is the same bits."""
    mask = _checked_mask(mask, logits.shape, axis)
    shifted_logits = logits + np.where(mask, 0.0, _NEG_INF)
    shifted = shifted_logits + (-shifted_logits.max(axis=axis, keepdims=True))
    exps = np.exp(np.clip(shifted, -60, 60)) * mask.astype(np.float64)
    return exps / exps.sum(axis=axis, keepdims=True)


def entropy(probs: Tensor, axis: int = -1) -> Tensor:
    """Shannon entropy ``H(P) = -Σ p log p`` (0·log 0 treated as 0)."""
    logp = probs.maximum(1e-12).log()
    return -(probs * logp).sum(axis=axis)


def entropy_array(probs: np.ndarray, axis: int = -1) -> np.ndarray:
    """:func:`entropy` on a bare array, bit for bit (``Tensor.maximum``
    is a ``where``, ``Tensor.log`` floors at 1e-300)."""
    floored = np.where(probs >= 1e-12, probs, 1e-12)
    logp = np.log(np.maximum(floored, 1e-300))
    return -(probs * logp).sum(axis=axis)


def relu_array(x: np.ndarray) -> np.ndarray:
    """``Tensor.relu`` on a bare array: a multiply by the positive mask."""
    return x * (x > 0)


def concat(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate along ``axis`` with gradient routing to each input."""
    if not tensors:
        raise ModelError("concat of zero tensors")
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer = [slice(None)] * grad.ndim
                slicer[axis] = slice(lo, hi)
                t._accumulate(grad[tuple(slicer)])

    return Tensor._from_op(out_data, tuple(tensors), backward)

