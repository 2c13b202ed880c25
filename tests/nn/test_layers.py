"""Tests for Module mechanics and dense layers."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import Linear, Module, Tensor


class TestLinear:
    def test_forward_shape_and_affine(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = Tensor(rng.normal(size=(6, 4)))
        out = layer(x)
        assert out.shape == (6, 3)
        expected = x.data @ layer.weight.data + layer.bias.data
        assert np.allclose(out.data, expected)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert layer.num_parameters() == 12

    def test_parameters_require_grad(self, rng):
        layer = Linear(2, 2, rng=rng)
        assert all(p.requires_grad for p in layer.parameters())


class TwoLayer(Module):
    """``Linear → relu → Linear``: a module nesting two others."""

    def __init__(self, rng):
        super().__init__()
        self.first = Linear(4, 8, rng=rng)
        self.second = Linear(8, 2, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.second(self.first(x).relu())


class TestModuleMechanics:
    def make_net(self, rng):
        return TwoLayer(rng)

    def test_nested_parameter_iteration(self, rng):
        net = self.make_net(rng)
        assert len(list(net.parameters())) == 4  # 2 weights + 2 biases
        names = [n for n, _ in net.named_parameters()]
        assert names == ["first.weight", "first.bias", "second.weight", "second.bias"]

    def test_train_and_eval_are_no_ops_returning_self(self, rng):
        # A module has one mode; both calls hand the module back unchanged.
        net = self.make_net(rng)
        state = net.state_dict()
        assert net.train() is net and net.train(False) is net and net.eval() is net
        assert vars(net).keys() == vars(self.make_net(rng)).keys()
        x = Tensor(rng.normal(size=(3, 4)))
        for name, value in net.state_dict().items():
            assert np.array_equal(value, state[name])
        assert np.array_equal(net.train()(x).data, net.eval()(x).data)

    def test_state_dict_roundtrip(self, rng):
        net = self.make_net(rng)
        other = self.make_net(np.random.default_rng(99))
        other.load_state_dict(net.state_dict())
        x = Tensor(rng.normal(size=(3, 4)))
        assert np.allclose(net(x).data, other(x).data)

    def test_state_dict_is_a_copy(self, rng):
        net = self.make_net(rng)
        state = net.state_dict()
        state["first.weight"][:] = 0.0
        assert not np.allclose(net.state_dict()["first.weight"], 0.0)

    def test_load_rejects_missing_and_unexpected(self, rng):
        net = self.make_net(rng)
        state = net.state_dict()
        del state["first.weight"]
        with pytest.raises(ModelError, match="missing"):
            net.load_state_dict(state)
        state = net.state_dict()
        state["bogus"] = np.zeros(2)
        with pytest.raises(ModelError, match="unexpected"):
            net.load_state_dict(state)

    def test_load_rejects_shape_mismatch(self, rng):
        net = self.make_net(rng)
        state = net.state_dict()
        state["first.weight"] = np.zeros((2, 2))
        with pytest.raises(ModelError, match="shape"):
            net.load_state_dict(state)

    def test_zero_grad(self, rng):
        net = self.make_net(rng)
        out = net(Tensor(rng.normal(size=(2, 4))))
        out.sum().backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_parameter_bytes(self, rng):
        layer = Linear(4, 4, rng=rng)
        assert layer.parameter_bytes() == (16 + 4) * 8  # float64
