"""Tests for model persistence."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import Linear, Module, Tensor, load_module, model_nbytes, save_module


class TwoLayer(Module):
    """``Linear(3, hidden) → relu → Linear(hidden, 2)``."""

    def __init__(self, hidden: int = 5, rng=None):
        super().__init__()
        self.first = Linear(3, hidden, rng=rng)
        self.second = Linear(hidden, 2, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.second(self.first(x).relu())


def make_net(seed: int) -> TwoLayer:
    return TwoLayer(rng=np.random.default_rng(seed))


class TestSaveLoad:
    def test_roundtrip_preserves_outputs(self, tmp_path, rng):
        net = make_net(1)
        path = tmp_path / "model.npz"
        save_module(net, path)
        other = make_net(2)
        load_module(other, path)
        x = Tensor(rng.normal(size=(4, 3)))
        assert np.allclose(net(x).data, other(x).data)

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "model.npz"
        save_module(make_net(1), path)
        assert path.exists()

    def test_empty_module_rejected(self, tmp_path):
        with pytest.raises(ModelError):
            save_module(Module(), tmp_path / "x.npz")

    def test_architecture_mismatch_rejected(self, tmp_path):
        save_module(make_net(1), tmp_path / "m.npz")
        wrong = TwoLayer(hidden=4)
        with pytest.raises(ModelError):
            load_module(wrong, tmp_path / "m.npz")


def test_model_nbytes_counts_float64_params():
    net = make_net(0)
    expected = (3 * 5 + 5 + 5 * 2 + 2) * 8
    assert model_nbytes(net) == expected
