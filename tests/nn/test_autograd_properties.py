"""Property-based gradient checks over random op compositions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor

# Unary ops that are smooth (or piecewise-smooth away from measure-zero
# kink sets) so finite differences agree with autograd almost surely.
UNARY_OPS = {
    "relu": lambda t: t.relu(),
    # Damped exp: repeated composition of raw exp is doubly exponential,
    # which overflows past the stability clip and (correctly) breaks the
    # finite-difference comparison; 0.3·x keeps compositions bounded.
    "exp": lambda t: (t * 0.3).exp(),
    "leaky": lambda t: t.leaky_relu(0.1),
    "scale": lambda t: t * 0.7 + 0.1,
}


@st.composite
def op_chains(draw):
    ops = draw(
        st.lists(st.sampled_from(sorted(UNARY_OPS)), min_size=1, max_size=4)
    )
    seed = draw(st.integers(0, 2**31 - 1))
    return ops, seed


@given(op_chains())
@settings(max_examples=30)
def test_random_unary_chains_match_numerical_gradient(chain):
    ops, seed = chain
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(3, 2)) * 0.8

    def build(data: np.ndarray) -> float:
        t = Tensor(data, requires_grad=True)
        out = t
        for name in ops:
            out = UNARY_OPS[name](out)
        return t, out.sum()

    t, loss = build(base.copy())
    loss.backward()
    analytic = t.grad.copy()

    eps = 1e-6
    numeric = np.zeros_like(base)
    for i in np.ndindex(*base.shape):
        hi = base.copy()
        hi[i] += eps
        lo = base.copy()
        lo[i] -= eps
        _, fh = build(hi)
        _, fl = build(lo)
        numeric[i] = (float(fh.data) - float(fl.data)) / (2 * eps)

    assert np.abs(analytic - numeric).max() < 1e-4


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20)
def test_matmul_chain_gradient(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    loss = (((a @ b) * 0.6).exp()).sum()
    loss.backward()
    assert a.grad is not None and b.grad is not None
    assert np.isfinite(a.grad).all() and np.isfinite(b.grad).all()
