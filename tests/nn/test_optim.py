"""Tests for the optimizer (Adam) and gradient-norm clipping."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import Adam, Linear, Tensor
from repro.nn.optim import clip_grad_norm


def quadratic_loss(param: Tensor) -> Tensor:
    # f(w) = ||w - 3||^2, minimized at w = 3.
    diff = param - 3.0
    return (diff * diff).sum()


class TestAdam:
    def test_converges_on_quadratic(self):
        w = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([w], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(w).backward()
            opt.step()
        assert np.allclose(w.data, 3.0, atol=1e-2)

    def test_bias_correction_first_step_magnitude(self):
        # With Adam, the first step size is ~lr regardless of grad scale.
        w = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([w], lr=0.5)
        opt.zero_grad()
        (w * 1000.0).sum().backward()
        opt.step()
        assert abs(w.data[0]) == pytest.approx(0.5, rel=1e-3)

    def test_skips_parameters_without_grad(self):
        w = Tensor(np.ones(2), requires_grad=True)
        Adam([w], lr=0.1).step()  # no backward ran: no-op
        assert np.allclose(w.data, 1.0)

    def test_trains_linear_regression(self, rng):
        # y = x @ w_true; Adam should recover w_true.
        w_true = np.array([[1.0], [-2.0]])
        x_data = rng.normal(size=(64, 2))
        y_data = x_data @ w_true
        layer = Linear(2, 1, bias=False, rng=rng)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            pred = layer(Tensor(x_data))
            diff = pred - Tensor(y_data)
            ((diff * diff).sum() * (1.0 / len(x_data))).backward()
            opt.step()
        assert np.allclose(layer.weight.data, w_true, atol=0.05)


class TestClipGradNorm:
    def test_shared_gradient_is_scaled_once_per_parameter(self):
        # ``a + b`` hands both parameters the one seed array as their
        # first gradient; clipping must scale each exactly once and
        # leave the seed as it was.
        a = Tensor(np.zeros(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        seed = np.array([3.0, -4.0, 12.0])
        kept = seed.copy()
        (a + b).backward(seed)
        norm = clip_grad_norm([a, b], max_norm=1.0)
        assert norm == pytest.approx(13.0 * 2**0.5)
        assert np.array_equal(a.grad, kept * (1.0 / norm))
        assert np.array_equal(b.grad, kept * (1.0 / norm))
        assert np.array_equal(seed, kept)

    def test_norm_below_max_leaves_gradients_alone(self):
        w = Tensor(np.zeros(2), requires_grad=True)
        (w * 2.0).sum().backward()
        before = w.grad
        assert clip_grad_norm([w], max_norm=10.0) == pytest.approx(8**0.5)
        assert w.grad is before
        assert clip_grad_norm([w], max_norm=None) == pytest.approx(8**0.5)


class TestValidation:
    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ModelError):
            Adam([], lr=0.1)

    def test_nonpositive_lr_rejected(self):
        w = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ModelError):
            Adam([w], lr=0.0)
