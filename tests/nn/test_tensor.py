"""Gradient-check tests for every autograd primitive.

Each op's analytic gradient is compared against central finite
differences — the ground truth the whole RL stack rests on.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.nn import Tensor, concat


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


def _relative_error(actual: np.ndarray, reference: np.ndarray) -> float:
    scale = np.linalg.norm(reference)
    return float(np.linalg.norm(actual - reference) / scale) if scale else 0.0


class TestStackTimesMatrix:
    """``(S, n, d) @ (d, h)`` back-propagates as one GEMM per gradient."""

    @given(
        dims=st.tuples(*[st.integers(1, 6)] * 4),
        grads=st.sampled_from([(True, False), (False, True), (True, True)]),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_gradients_equal_the_stacked_then_summed_reference(
        self, dims, grads, seed
    ):
        (S, n, d, h), (x_grad, w_grad) = dims, grads
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(S, n, d)), requires_grad=x_grad)
        w = Tensor(rng.normal(size=(d, h)), requires_grad=w_grad)
        upstream = rng.normal(size=(S, n, h))
        out = x @ w
        assert np.array_equal(out.data, x.data @ w.data)
        out.backward(upstream)
        if x_grad:
            reference = upstream @ w.data.T
            assert x.grad.shape == x.shape
            assert _relative_error(x.grad, reference) <= 1e-12
        else:
            assert x.grad is None
        if w_grad:
            reference = (x.data.swapaxes(-1, -2) @ upstream).sum(axis=0)
            assert w.grad.shape == w.shape
            assert _relative_error(w.grad, reference) <= 1e-12
        else:
            assert w.grad is None

    def test_matrix_times_matrix_keeps_its_result(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        upstream = rng.normal(size=(5, 3))
        (x @ w).backward(upstream)
        assert np.array_equal(x.grad, upstream @ w.data.swapaxes(-1, -2))
        assert np.array_equal(w.grad, x.data.swapaxes(-1, -2) @ upstream)

    def test_stack_times_stack_keeps_its_result(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 5, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
        upstream = rng.normal(size=(3, 5, 2))
        (x @ w).backward(upstream)
        assert np.array_equal(x.grad, upstream @ w.data.swapaxes(-1, -2))
        assert np.array_equal(w.grad, x.data.swapaxes(-1, -2) @ upstream)

    def test_matrix_times_stack_keeps_its_result(self):
        rng = np.random.default_rng(5)
        a = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
        h = Tensor(rng.normal(size=(3, 5, 2)), requires_grad=True)
        upstream = rng.normal(size=(3, 5, 2))
        (a @ h).backward(upstream)
        expected = (upstream @ h.data.swapaxes(-1, -2)).sum(axis=0)
        assert np.array_equal(a.grad, expected)
        assert np.array_equal(h.grad, a.data.swapaxes(-1, -2) @ upstream)


def _graph_nodes(root: Tensor) -> list[Tensor]:
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


class TestGradientLifetime:
    def test_seed_array_is_not_written(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        seed = np.array([0.5, 3.0])
        kept = seed.copy()
        (a + a).backward(seed)  # a's first gradient is the seed itself
        assert np.array_equal(seed, kept)
        assert np.array_equal(a.grad, 2 * kept)

    def test_backward_calls_on_fresh_graphs_add_up(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a * 3.0).sum().backward()
        (a * 4.0).sum().backward()
        assert a.grad.tolist() == [7.0, 7.0]

    def test_propagated_gradients_are_freed_and_leaves_keep_theirs(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(3, 4, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        a = Tensor(rng.normal(size=(4, 4)))  # a constant leaf
        hidden = (a @ (x @ w)).relu()
        mixed = concat([hidden, hidden.transpose().reshape(3, 4, 2)], axis=-1)
        loss = (mixed.exp() * mixed).sum(axis=1).sum()
        loss.backward()
        nodes = _graph_nodes(loss)
        inner = [node for node in nodes if node._backward is not None]
        assert len(inner) > 5
        assert all(node.grad is None for node in inner)
        assert x.grad is not None and w.grad is not None
        assert a.grad is None  # needs no gradient: never accumulated
