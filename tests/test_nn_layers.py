"""Tests for the standard layers: shapes, semantics, statistics."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn import init
from repro.tensor import Tensor


class TestLinear:
    def test_output_shape(self, rng):
        layer = Linear(5, 3, rng=rng)
        assert layer(Tensor(np.zeros((7, 5)))).shape == (7, 3)

    def test_weight_shape_out_in(self, rng):
        layer = Linear(5, 3, rng=rng)
        assert layer.weight.shape == (3, 5)

    def test_no_bias(self, rng):
        layer = Linear(5, 3, bias=False, rng=rng)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_deterministic_with_seed(self):
        a = Linear(4, 4, rng=np.random.default_rng(0))
        b = Linear(4, 4, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)

    def test_effective_weight_is_raw_weight(self, rng):
        layer = Linear(3, 2, rng=rng)
        assert layer.effective_weight() is layer.weight

    def test_computes_affine_map(self, rng):
        layer = Linear(3, 2, rng=rng)
        x = rng.standard_normal((4, 3))
        expected = x @ layer.weight.data.T + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected, atol=1e-12)


class TestConv2d:
    def test_output_shape_padded(self, rng):
        layer = Conv2d(3, 8, 3, padding=1, rng=rng)
        assert layer(Tensor(np.zeros((2, 3, 8, 8)))).shape == (2, 8, 8, 8)

    def test_output_shape_strided(self, rng):
        layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
        assert layer(Tensor(np.zeros((2, 3, 8, 8)))).shape == (2, 8, 4, 4)

    def test_weight_shape(self, rng):
        layer = Conv2d(3, 8, 5, rng=rng)
        assert layer.weight.shape == (8, 3, 5, 5)

    def test_no_bias_option(self, rng):
        layer = Conv2d(3, 8, 3, bias=False, rng=rng)
        assert layer.bias is None

    def test_repr_mentions_geometry(self, rng):
        assert "k=3" in repr(Conv2d(3, 8, 3, rng=rng))


class TestBatchNorm2d:
    def test_training_normalizes_batch(self, rng):
        bn = BatchNorm2d(4)
        x = Tensor(rng.standard_normal((8, 4, 5, 5)) * 3 + 2)
        out = bn(x)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0, atol=1e-10)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_running_stats_updated_in_training(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((16, 2, 4, 4)) + 5.0)
        bn(x)
        assert np.all(bn.running_mean > 0)
        assert bn.num_batches_tracked[0] == 1

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(2)
        for _ in range(50):
            bn(Tensor(rng.standard_normal((16, 2, 4, 4)) * 2 + 3))
        bn.eval()
        x = Tensor(rng.standard_normal((4, 2, 4, 4)) * 2 + 3)
        out = bn(x)
        assert abs(out.data.mean()) < 0.3

    def test_eval_no_stat_update(self, rng):
        bn = BatchNorm2d(2)
        bn(Tensor(rng.standard_normal((4, 2, 3, 3))))
        bn.eval()
        mean_before = bn.running_mean.copy()
        bn(Tensor(rng.standard_normal((4, 2, 3, 3)) + 10))
        np.testing.assert_array_equal(bn.running_mean, mean_before)

    def test_affine_parameters_trainable(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.standard_normal((4, 3, 2, 2)), requires_grad=True)
        bn(x).sum().backward()
        assert bn.weight.grad is not None
        assert bn.bias.grad is not None

    def test_gradient_flows_through(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.standard_normal((4, 2, 3, 3)), requires_grad=True)
        (bn(x) ** 2).sum().backward()
        assert x.grad is not None
        assert np.abs(x.grad).sum() > 0


class TestBatchNorm1d:
    def test_normalizes_features(self, rng):
        bn = BatchNorm1d(5)
        out = bn(Tensor(rng.standard_normal((32, 5)) * 4 - 1))
        np.testing.assert_allclose(out.data.mean(axis=0), 0, atol=1e-10)

    def test_eval_mode_shape(self, rng):
        bn = BatchNorm1d(5)
        bn(Tensor(rng.standard_normal((8, 5))))
        bn.eval()
        assert bn(Tensor(rng.standard_normal((3, 5)))).shape == (3, 5)


class TestSimpleLayers:
    def test_relu(self):
        out = ReLU()(Tensor(np.array([-1.0, 2.0])))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_max_pool_layer(self, rng):
        layer = MaxPool2d(2)
        assert layer(Tensor(np.zeros((1, 2, 6, 6)))).shape == (1, 2, 3, 3)

    def test_avg_pool_layer_custom_stride(self, rng):
        layer = AvgPool2d(3, stride=1)
        assert layer(Tensor(np.zeros((1, 1, 5, 5)))).shape == (1, 1, 3, 3)

    def test_global_avg_pool_layer(self, rng):
        layer = GlobalAvgPool2d()
        assert layer(Tensor(np.zeros((2, 7, 4, 4)))).shape == (2, 7)

    def test_flatten_layer(self):
        assert Flatten()(Tensor(np.zeros((2, 3, 4)))).shape == (2, 12)

    def test_identity(self, rng):
        x = Tensor(rng.standard_normal(5))
        assert Identity()(x) is x

    def test_dropout_training_zeroes_some(self):
        layer = Dropout(0.5, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones(1000)))
        assert (out.data == 0).sum() > 300

    def test_dropout_eval_identity(self):
        layer = Dropout(0.5)
        layer.eval()
        x = Tensor(np.ones(10))
        assert layer(x) is x

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.5)


class TestInit:
    def test_kaiming_normal_std(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_normal((256, 128), rng)
        expected_std = np.sqrt(2.0 / 128)
        assert w.std() == pytest.approx(expected_std, rel=0.1)

    def test_kaiming_uniform_bound(self):
        rng = np.random.default_rng(0)
        w = init.kaiming_uniform((64, 64), rng)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 64)
        assert np.abs(w).max() <= bound

    def test_conv_fan_computation(self):
        fan_in, fan_out = init._fan_in_out((16, 8, 3, 3))
        assert fan_in == 8 * 9
        assert fan_out == 16 * 9

    def test_unsupported_shape_raises(self):
        with pytest.raises(ValueError):
            init._fan_in_out((3,))

    def test_uniform_bias_bound(self):
        rng = np.random.default_rng(0)
        b = init.uniform_bias((8, 16), rng)
        assert np.abs(b).max() <= 1.0 / 4.0
        assert b.shape == (8,)
