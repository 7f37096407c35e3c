"""Tests for layer-sensitivity analysis and the concat/stack tensor ops."""

import numpy as np
import pytest

from repro.core.sensitivity import measure_layer_sensitivity, render_sensitivity
from repro.tensor import Tensor, concatenate, stack
from tests.conftest import finite_difference


class TestSensitivity:
    @pytest.fixture(scope="class")
    def measured(self, trained_mlp, tiny_dataset):
        return measure_layer_sensitivity(
            trained_mlp,
            tiny_dataset.val_images[:40],
            tiny_dataset.val_labels[:40],
            bit_widths=(1, 2, 4),
        )

    def test_covers_quantizable_layers(self, measured):
        assert set(measured.accuracy) == {"fc1", "fc2"}

    def test_baseline_is_fp_accuracy(self, measured, trained_mlp, tiny_dataset):
        from repro.tensor import functional as F
        from repro.tensor.tensor import no_grad

        trained_mlp.eval()
        with no_grad():
            logits = trained_mlp(Tensor(tiny_dataset.val_images[:40]))
        expected = F.accuracy(logits, tiny_dataset.val_labels[:40])
        assert measured.baseline == pytest.approx(expected)

    def test_more_bits_never_much_worse(self, measured):
        """4-bit quantization of a single layer should lose little."""
        for name in measured.accuracy:
            assert measured.drop(name, 4) <= measured.drop(name, 1) + 0.05

    def test_drop_helper(self, measured):
        name = next(iter(measured.accuracy))
        assert measured.drop(name, 1) == pytest.approx(
            measured.baseline - measured.accuracy[name][1]
        )

    def test_most_least_sensitive(self, measured):
        most = measured.most_sensitive(1)
        least = measured.least_sensitive(1)
        assert measured.drop(most, 1) >= measured.drop(least, 1)

    def test_model_not_modified(self, trained_mlp, tiny_dataset):
        from repro.quant import QLinear

        measure_layer_sensitivity(
            trained_mlp,
            tiny_dataset.val_images[:20],
            tiny_dataset.val_labels[:20],
            bit_widths=(2,),
        )
        assert not any(isinstance(m, QLinear) for m in trained_mlp.modules())

    def test_empty_bit_widths_raise(self, trained_mlp, tiny_dataset):
        with pytest.raises(ValueError):
            measure_layer_sensitivity(
                trained_mlp, tiny_dataset.val_images[:10],
                tiny_dataset.val_labels[:10], bit_widths=(),
            )

    def test_negative_bits_raise(self, trained_mlp, tiny_dataset):
        with pytest.raises(ValueError):
            measure_layer_sensitivity(
                trained_mlp, tiny_dataset.val_images[:10],
                tiny_dataset.val_labels[:10], bit_widths=(-1,),
            )

    def test_render(self, measured):
        text = render_sensitivity(measured)
        assert "fc1" in text and "baseline" in text


class TestConcatenate:
    def test_values(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
        out = concatenate([Tensor(a), Tensor(b)], axis=0)
        np.testing.assert_array_equal(out.data, np.concatenate([a, b]))

    def test_gradients_split_correctly(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        out = concatenate([a, b], axis=0)
        (out * out).sum().backward()

        def loss():
            return float((np.concatenate([a.data, b.data]) ** 2).sum())

        np.testing.assert_allclose(a.grad, finite_difference(a.data, loss), atol=1e-6)
        np.testing.assert_allclose(b.grad, finite_difference(b.data, loss), atol=1e-6)

    def test_axis_one(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 5))
        out = concatenate([Tensor(a), Tensor(b)], axis=1)
        assert out.shape == (2, 8)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            concatenate([])


class TestStack:
    def test_values(self, rng):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        out = stack([Tensor(a), Tensor(b)])
        np.testing.assert_array_equal(out.data, np.stack([a, b]))
        assert out.shape == (2, 4)

    def test_gradients(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        (stack([a, b], axis=0) ** 2).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)
        np.testing.assert_allclose(b.grad, 2 * b.data)

    def test_new_axis_position(self, rng):
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((2, 3))
        assert stack([Tensor(a), Tensor(b)], axis=1).shape == (2, 2, 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            stack([])
