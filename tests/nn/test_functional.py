"""Tests for functional ops: masked softmax, entropy, concat."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.nn import Tensor, concat, entropy, masked_softmax


class TestMaskedSoftmax:
    def test_masked_entries_are_zero(self):
        logits = Tensor(np.array([5.0, 1.0, 3.0]))
        mask = np.array([True, False, True])
        p = masked_softmax(logits, mask).data
        assert p[1] == 0.0
        assert p.sum() == pytest.approx(1.0)

    def test_matches_manual_renormalization(self):
        logits = np.array([1.0, 2.0, 3.0, 4.0])
        mask = np.array([True, True, False, True])
        p = masked_softmax(Tensor(logits), mask).data
        exps = np.exp(logits[mask] - logits[mask].max())
        expected = exps / exps.sum()
        assert np.allclose(p[mask], expected)

    def test_empty_mask_rejected(self):
        with pytest.raises(ModelError):
            masked_softmax(Tensor(np.ones(3)), np.zeros(3, dtype=bool))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ModelError):
            masked_softmax(Tensor(np.ones(3)), np.ones(4, dtype=bool))

    def test_no_gradient_through_masked_entries(self):
        logits = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        mask = np.array([True, False, True])
        (masked_softmax(logits, mask) * np.array([1.0, 0.0, 0.0])).sum().backward()
        assert logits.grad[1] == 0.0

    def test_single_valid_entry_gets_probability_one(self):
        logits = Tensor(np.array([-50.0, 2.0]))
        p = masked_softmax(logits, np.array([True, False])).data
        assert p[0] == pytest.approx(1.0)


class TestEntropy:
    def test_uniform_maximizes(self):
        uniform = Tensor(np.full(4, 0.25))
        peaked = Tensor(np.array([0.97, 0.01, 0.01, 0.01]))
        assert float(entropy(uniform).data) > float(entropy(peaked).data)

    def test_known_value(self):
        p = Tensor(np.array([0.5, 0.5]))
        assert float(entropy(p).data) == pytest.approx(np.log(2.0))

    def test_zero_probability_is_safe(self):
        p = Tensor(np.array([1.0, 0.0]))
        assert np.isfinite(float(entropy(p).data))
        assert float(entropy(p).data) == pytest.approx(0.0, abs=1e-9)


class TestConcat:
    def test_forward_shapes(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 2)))
        assert concat([a, b], axis=-1).shape == (2, 5)

    def test_gradient_routing(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        (concat([a, b], axis=1) * 2.0).sum().backward()
        assert np.allclose(a.grad, 2.0)
        assert np.allclose(b.grad, 2.0)

    def test_empty_list_rejected(self):
        with pytest.raises(ModelError):
            concat([])
