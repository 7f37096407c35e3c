"""Tests for the APN, WrapNet and uniform baselines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    AnyPrecisionNet,
    SwitchableBatchNorm2d,
    WrapConv2d,
    WrapLinear,
    WrapNetConfig,
    build_wrapnet,
)
from repro.baselines.wrapnet import cyclic_map, overflow_penalty, wrap_to_signed
from repro.models.vgg import VGGSmall
from repro.nn import BatchNorm2d, Conv2d, Linear
from repro.quant.qmodules import quantized_layers
from repro.tensor import Tensor


class TestSwitchableBatchNorm:
    def test_branches_created_per_precision(self):
        bn = SwitchableBatchNorm2d(4, [2, 3, 4])
        assert bn.bit_widths == (2, 3, 4)
        assert bn.bn_2.num_features == 4

    def test_select_changes_active_branch(self, rng):
        bn = SwitchableBatchNorm2d(2, [2, 4])
        x = Tensor(rng.standard_normal((8, 2, 3, 3)) + 5)
        bn.select(2)
        bn(x)
        # only the 2-bit branch saw data
        assert bn.bn_2.num_batches_tracked[0] == 1
        assert bn.bn_4.num_batches_tracked[0] == 0

    def test_select_unknown_raises(self):
        with pytest.raises(KeyError):
            SwitchableBatchNorm2d(2, [2]).select(3)

    def test_empty_bit_widths_raise(self):
        with pytest.raises(ValueError):
            SwitchableBatchNorm2d(2, [])

    def test_duplicate_bits_deduplicated(self):
        bn = SwitchableBatchNorm2d(2, [4, 4, 2])
        assert bn.bit_widths == (2, 4)


class TestAnyPrecisionNet:
    @pytest.fixture(scope="class")
    def apn(self):
        model = VGGSmall(num_classes=4, image_size=8, width=4, rng=np.random.default_rng(0))
        return AnyPrecisionNet(model, bit_widths=[2, 4])

    def test_set_precision_updates_all_layers(self, apn):
        apn.set_precision(2)
        for layer in quantized_layers(apn.network).values():
            assert np.all(layer.bits == 2)
            assert layer.act_bits == 2

    def test_set_precision_switches_bns(self, apn):
        apn.set_precision(4)
        for module in apn.network.modules():
            if isinstance(module, SwitchableBatchNorm2d):
                assert module.active_bits == 4

    def test_unknown_precision_raises(self, apn):
        with pytest.raises(KeyError):
            apn.set_precision(7)

    def test_output_depends_on_precision(self, apn):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        apn.eval()
        apn.set_precision(2)
        out2 = apn(x).data.copy()
        apn.set_precision(4)
        out4 = apn(x).data.copy()
        assert not np.allclose(out2, out4)

    def test_original_model_untouched(self):
        model = VGGSmall(num_classes=4, image_size=8, width=4, rng=np.random.default_rng(0))
        weight_before = model.conv1.weight.data.copy()
        AnyPrecisionNet(model, bit_widths=[2])
        np.testing.assert_array_equal(model.conv1.weight.data, weight_before)
        assert type(model.bn1) is BatchNorm2d


class TestWrapArithmetic:
    def test_wrap_identity_in_range(self):
        values = np.array([-8.0, 0.0, 7.0])
        np.testing.assert_array_equal(wrap_to_signed(values, 4), values)

    def test_wrap_overflow_wraps_around(self):
        assert wrap_to_signed(np.array([8.0]), 4)[0] == -8.0
        assert wrap_to_signed(np.array([-9.0]), 4)[0] == 7.0

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(3, 16))
    @settings(max_examples=100, deadline=None)
    def test_wrap_always_in_signed_range(self, value, bits):
        wrapped = wrap_to_signed(np.array([float(value)]), bits)[0]
        half = 2 ** (bits - 1)
        assert -half <= wrapped < half

    @given(st.integers(-10 ** 6, 10 ** 6), st.integers(3, 16))
    @settings(max_examples=100, deadline=None)
    def test_wrap_congruent_modulo(self, value, bits):
        wrapped = wrap_to_signed(np.array([float(value)]), bits)[0]
        assert (wrapped - value) % (2 ** bits) == 0

    def test_cyclic_identity_in_safe_zone(self):
        values = np.array([-2.0, 0.0, 2.0])
        mapped, gradient = cyclic_map(values, 4)  # half=8, safe=4
        np.testing.assert_array_equal(mapped, values)
        np.testing.assert_array_equal(gradient, [1.0, 1.0, 1.0])

    def test_cyclic_folds_beyond_safe_zone(self):
        mapped, gradient = cyclic_map(np.array([6.0]), 4)  # half=8
        assert mapped[0] == pytest.approx(2.0)  # 8 - 6
        assert gradient[0] == -1.0

    def test_cyclic_continuous_at_boundary(self):
        below, _ = cyclic_map(np.array([3.999]), 4)
        above, _ = cyclic_map(np.array([4.001]), 4)
        assert abs(below[0] - above[0]) < 0.01


class TestWrapLayers:
    def test_wrap_linear_high_acc_bits_close_to_quantized(self, rng):
        """With a huge accumulator nothing overflows, so the layer reduces
        to plain W/A fake quantization."""
        fc = Linear(6, 3, rng=rng)
        wrap = WrapLinear.from_float(fc, WrapNetConfig(weight_bits=4, act_bits=4, acc_bits=30))
        x = Tensor(np.abs(rng.standard_normal((4, 6))))
        wrap.train()
        wrap(x)
        wrap.eval()
        out = wrap(x)
        assert wrap.last_overflow_rate == 0.0
        assert out.shape == (4, 3)

    def test_wrap_conv_shape(self, rng):
        conv = Conv2d(2, 3, 3, padding=1, rng=rng)
        wrap = WrapConv2d.from_float(conv, WrapNetConfig(acc_bits=20))
        out = wrap(Tensor(np.abs(rng.standard_normal((1, 2, 6, 6)))))
        assert out.shape == (1, 3, 6, 6)

    def test_tiny_accumulator_overflows(self, rng):
        fc = Linear(50, 4, rng=rng)
        fc.weight.data[...] = np.abs(fc.weight.data) + 0.5
        wrap = WrapLinear.from_float(fc, WrapNetConfig(weight_bits=4, act_bits=4, acc_bits=4))
        x = Tensor(np.abs(rng.standard_normal((4, 50))) + 1.0)
        wrap(x)
        assert wrap.last_overflow_rate > 0.0

    def test_gradients_flow_through_wrap(self, rng):
        fc = Linear(6, 3, rng=rng)
        wrap = WrapLinear.from_float(fc, WrapNetConfig(acc_bits=16))
        x = Tensor(np.abs(rng.standard_normal((4, 6))))
        wrap(x).sum().backward()
        assert wrap.weight.grad is not None
        assert np.abs(wrap.weight.grad).sum() > 0

    def test_build_wrapnet_skips_first_and_last(self):
        model = VGGSmall(num_classes=4, image_size=8, width=4, rng=np.random.default_rng(0))
        network = build_wrapnet(model, WrapNetConfig())
        assert type(network.conv0) is Conv2d
        assert type(network.fc8) is Linear
        assert isinstance(network.conv1, WrapConv2d)
        assert isinstance(network.fc5, WrapLinear)

    def test_overflow_penalty_aggregates(self):
        model = VGGSmall(num_classes=4, image_size=8, width=4, rng=np.random.default_rng(0))
        network = build_wrapnet(model, WrapNetConfig(acc_bits=24))
        network(Tensor(np.random.default_rng(0).standard_normal((2, 3, 8, 8))))
        assert overflow_penalty(network) >= 0.0

    def test_overflow_penalty_empty_model(self):
        model = VGGSmall(num_classes=4, image_size=8, width=4, rng=np.random.default_rng(0))
        assert overflow_penalty(model) == 0.0
