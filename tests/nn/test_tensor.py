"""Gradient-check tests for every autograd primitive.

Each op's analytic gradient is compared against central finite
differences — the ground truth the whole RL stack rests on.
"""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import Tensor


def numerical_grad(f, x: Tensor, eps: float = 1e-6) -> np.ndarray:
    grad = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    out = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = float(f().data)
        flat[i] = old - eps
        lo = float(f().data)
        flat[i] = old
        out[i] = (hi - lo) / (2 * eps)
    return grad


def check_gradient(make_loss, x: Tensor, tol: float = 1e-6):
    x.zero_grad()
    loss = make_loss()
    loss.backward()
    analytic = x.grad.copy()
    numeric = numerical_grad(make_loss, x)
    assert np.abs(analytic - numeric).max() < tol, (
        f"gradient mismatch: {np.abs(analytic - numeric).max():.2e}"
    )


@pytest.fixture()
def x():
    rng = np.random.default_rng(0)
    return Tensor(rng.normal(size=(4, 3)) + 0.1, requires_grad=True)


@pytest.fixture()
def y():
    rng = np.random.default_rng(1)
    return Tensor(rng.normal(size=(4, 3)) + 2.0, requires_grad=True)


class TestArithmeticGradients:
    def test_add(self, x, y):
        check_gradient(lambda: (x + y).sum(), x)

    def test_add_broadcast_bias(self, x):
        b = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        check_gradient(lambda: ((x + b) * (x + b)).sum(), b)

    def test_scalar_radd(self, x):
        check_gradient(lambda: (2.5 + x).sum(), x)

    def test_sub_and_neg(self, x, y):
        check_gradient(lambda: ((x - y) * (x - y)).sum(), x)
        check_gradient(lambda: (-x).sum(), x)

    def test_mul(self, x, y):
        check_gradient(lambda: (x * y).sum(), x)
        check_gradient(lambda: (x * y).sum(), y)

    def test_div(self, x, y):
        check_gradient(lambda: (x / y).sum(), x)
        check_gradient(lambda: (x / y).sum(), y)

    def test_matmul(self, x):
        w = Tensor(np.random.default_rng(2).normal(size=(3, 5)), requires_grad=True)
        check_gradient(lambda: (x @ w).sum(), x)
        check_gradient(lambda: ((x @ w) * (x @ w)).sum(), w, tol=1e-5)


class TestReductionsAndShaping:
    def test_sum_all(self, x):
        check_gradient(lambda: x.sum(), x)

    def test_sum_axis(self, x):
        check_gradient(lambda: (x.sum(axis=0) * x.sum(axis=0)).sum(), x, tol=1e-5)
        check_gradient(lambda: (x.sum(axis=1, keepdims=True) * x).sum(), x, tol=1e-5)

    def test_reshape(self, x):
        check_gradient(lambda: (x.reshape(12) * x.reshape(12)).sum(), x, tol=1e-5)

    def test_transpose(self, x):
        check_gradient(lambda: (x.transpose() @ x).sum(), x, tol=1e-5)

    def test_transpose_swaps_the_last_two_axes_of_a_stack(self):
        stack = Tensor(np.random.default_rng(2).normal(size=(2, 3, 4)), requires_grad=True)
        assert stack.transpose().shape == (2, 4, 3)
        assert np.array_equal(stack.transpose().data[1], stack.data[1].T)
        weights = np.arange(24.0).reshape(2, 4, 3)
        check_gradient(
            lambda: (stack.transpose() @ stack * (stack.transpose() @ stack)).sum()
            + (stack.transpose() * weights).sum(),
            stack, tol=1e-4,
        )

    def test_transpose_requires_2d(self):
        with pytest.raises(ModelError):
            Tensor(np.zeros(3)).transpose()


class TestNonlinearGradients:
    def test_relu(self, x):
        check_gradient(lambda: (x.relu() * x.relu()).sum(), x, tol=1e-5)

    def test_leaky_relu(self, x):
        check_gradient(lambda: x.leaky_relu(0.1).sum(), x)

    def test_exp(self, x):
        check_gradient(lambda: x.exp().sum(), x, tol=1e-4)

    def test_log(self, y):
        check_gradient(lambda: y.maximum(0.5).log().sum(), y, tol=1e-5)

    def test_clip_interior_gradient(self, x):
        check_gradient(lambda: x.clip(-0.5, 0.5).sum(), x)

    def test_clip_blocks_exterior_gradient(self):
        t = Tensor(np.array([10.0, -10.0, 0.0]), requires_grad=True)
        t.clip(-1, 1).sum().backward()
        assert t.grad.tolist() == [0.0, 0.0, 1.0]

    def test_maximum_minimum(self, x, y):
        check_gradient(lambda: x.maximum(0.0).sum(), x)
        check_gradient(lambda: x.minimum(0.0).sum(), x)
        check_gradient(lambda: x.maximum(y).sum(), x, tol=1e-5)
        check_gradient(lambda: x.minimum(y).sum(), y, tol=1e-5)


class TestAutogradMechanics:
    def test_gradient_accumulates_across_uses(self):
        t = Tensor(np.array([2.0]), requires_grad=True)
        (t * t + t).sum().backward()  # d/dt (t^2 + t) = 2t + 1 = 5
        assert t.grad[0] == pytest.approx(5.0)

    def test_backward_requires_grad(self):
        with pytest.raises(ModelError):
            Tensor(np.ones(3)).backward()

    def test_diamond_graph_gradient(self):
        # z = (a*b) + (a+b): both paths contribute to a.
        a = Tensor(np.array([3.0]), requires_grad=True)
        b = Tensor(np.array([4.0]), requires_grad=True)
        ((a * b) + (a + b)).sum().backward()
        assert a.grad[0] == pytest.approx(5.0)  # b + 1
        assert b.grad[0] == pytest.approx(4.0)  # a + 1

    def test_deep_chain_no_recursion_error(self):
        t = Tensor(np.array([1.0]), requires_grad=True)
        out = t
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        assert t.grad[0] == pytest.approx(1.0)
