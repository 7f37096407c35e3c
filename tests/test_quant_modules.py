"""Tests for quantized modules, model conversion and STE behaviour."""

import numpy as np
import pytest

from repro.nn import Conv2d, Flatten, Linear, ReLU, Sequential
from repro.quant import (
    MinMaxObserver,
    QConv2d,
    QLinear,
    quantize_model,
    quantized_layers,
    ste_quantize_activations,
    ste_quantize_weights,
)
from repro.quant.qmodules import (
    apply_bit_map,
    calibrate_activations,
    extract_bit_map,
    quantizable_layer_names,
    weight_layer_names,
)
from repro.quant.bitmap import BitWidthMap
from repro.tensor import Tensor


def small_cnn(rng=None):
    rng = rng if rng is not None else np.random.default_rng(0)
    return Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng),
        ReLU(),
        Conv2d(4, 6, 3, padding=1, rng=rng),
        ReLU(),
        Flatten(),
        Linear(6 * 8 * 8, 12, rng=rng),
        ReLU(),
        Linear(12, 5, rng=rng),
    )


class TestObserver:
    def test_tracks_min_max(self):
        obs = MinMaxObserver()
        obs.observe(np.array([1.0, -3.0]))
        obs.observe(np.array([5.0]))
        assert obs.min_value == -3.0
        assert obs.max_value == 5.0
        assert obs.num_batches == 2

    def test_uninitialized_range_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxObserver().range_for_relu()

    def test_relu_range_clamps_lower_to_zero(self):
        obs = MinMaxObserver()
        obs.observe(np.array([-2.0, 4.0]))
        assert obs.range_for_relu() == (0.0, 4.0)

    def test_relu_range_all_negative(self):
        obs = MinMaxObserver()
        obs.observe(np.array([-2.0, -1.0]))
        assert obs.range_for_relu() == (0.0, 0.0)

    def test_empty_observation_ignored(self):
        obs = MinMaxObserver()
        obs.observe(np.zeros(0))
        assert not obs.initialized

    def test_reset(self):
        obs = MinMaxObserver()
        obs.observe(np.ones(3))
        obs.reset()
        assert not obs.initialized

    def test_state_roundtrip(self):
        obs = MinMaxObserver()
        obs.observe(np.array([1.0, 2.0]))
        other = MinMaxObserver()
        other.load_state_dict(obs.state_dict())
        assert other.max_value == 2.0 and other.num_batches == 1


class TestSTE:
    def test_weight_ste_gradient_is_identity(self, rng):
        w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        out = ste_quantize_weights(w, np.array([2, 2, 2]))
        out.sum().backward()
        np.testing.assert_array_equal(w.grad, np.ones((3, 4)))

    def test_weight_ste_forward_quantizes(self, rng):
        w = Tensor(rng.standard_normal((2, 10)), requires_grad=True)
        out = ste_quantize_weights(w, np.array([1, 1]))
        assert len(np.unique(np.abs(out.data))) == 1  # binary +/- bound

    def test_activation_ste_clipped_gradient(self):
        x = Tensor(np.array([-1.0, 0.5, 3.0]), requires_grad=True)
        out = ste_quantize_activations(x, 2, 0.0, 1.0)
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])

    def test_activation_ste_forward_values(self):
        x = Tensor(np.array([0.0, 0.4, 1.0]))
        out = ste_quantize_activations(x, 1, 0.0, 1.0)
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 1.0])

    def test_activation_negative_bits_raise(self):
        with pytest.raises(ValueError):
            ste_quantize_activations(Tensor(np.zeros(2)), -1, 0.0, 1.0)


class TestQModules:
    def test_qconv_from_float_copies_weights(self, rng):
        conv = Conv2d(3, 4, 3, rng=rng)
        qconv = QConv2d.from_float(conv, max_bits=4)
        np.testing.assert_array_equal(qconv.weight.data, conv.weight.data)
        np.testing.assert_array_equal(qconv.bias.data, conv.bias.data)

    def test_qconv_disabled_weight_quant_matches_float(self, rng):
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        qconv = QConv2d.from_float(conv, max_bits=4)
        qconv.weight_quant_enabled = False
        x = Tensor(rng.standard_normal((2, 3, 6, 6)))
        np.testing.assert_allclose(qconv(x).data, conv(x).data)

    def test_qconv_quantized_output_differs(self, rng):
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        qconv = QConv2d.from_float(conv, max_bits=2)
        x = Tensor(rng.standard_normal((1, 3, 6, 6)))
        assert not np.allclose(qconv(x).data, conv(x).data)

    def test_set_bits_validation(self, rng):
        qconv = QConv2d(3, 4, 3, max_bits=4, rng=rng)
        with pytest.raises(ValueError):
            qconv.set_bits(np.array([1, 2, 3]))  # wrong length
        with pytest.raises(ValueError):
            qconv.set_bits(np.array([1, 2, 3, 9]))  # above max
        with pytest.raises(ValueError):
            qconv.set_bits(np.array([1, 2, 3, -1]))  # negative

    def test_zero_bits_filter_produces_bias_only(self, rng):
        qconv = QConv2d(2, 2, 3, padding=1, max_bits=4, rng=rng)
        qconv.set_bits(np.array([0, 4]))
        x = Tensor(rng.standard_normal((1, 2, 5, 5)))
        out = qconv(x)
        # channel 0 weights are pruned: output == bias everywhere
        np.testing.assert_allclose(out.data[0, 0], qconv.bias.data[0])

    def test_weights_per_filter(self, rng):
        qconv = QConv2d(3, 4, 5, rng=rng)
        assert qconv.weights_per_filter == 3 * 25
        qfc = QLinear(7, 3, rng=rng)
        assert qfc.weights_per_filter == 7

    def test_act_quant_applied_in_eval_after_observation(self, rng):
        qfc = QLinear(4, 2, max_bits=4, act_bits=1, rng=rng)
        x = Tensor(np.abs(rng.standard_normal((5, 4))))
        qfc(x)  # training: observes
        qfc.eval()
        out_input_effect = qfc(x)
        # with 1-bit activations, input effectively snaps to {0, max}
        assert qfc.act_observer.initialized

    def test_act_quant_disabled_when_none(self, rng):
        qfc = QLinear(4, 2, max_bits=4, act_bits=None, rng=rng)
        assert not qfc.act_quant_enabled

    def test_ste_training_updates_underlying_weights(self, rng):
        qfc = QLinear(4, 3, max_bits=2, rng=rng)
        x = Tensor(rng.standard_normal((6, 4)))
        before = qfc.weight.data.copy()
        out = qfc(x)
        out.sum().backward()
        assert qfc.weight.grad is not None
        qfc.weight.data -= 0.1 * qfc.weight.grad
        assert not np.allclose(qfc.weight.data, before)


class TestModelConversion:
    def test_weight_layer_names_in_order(self):
        model = small_cnn()
        assert weight_layer_names(model) == ["0", "2", "5", "7"]

    def test_quantizable_skips_first_and_last(self):
        model = small_cnn()
        assert quantizable_layer_names(model) == ["2", "5"]

    def test_quantizable_respects_model_override(self):
        model = small_cnn()
        model.quantization_skip = ("0",)
        assert quantizable_layer_names(model) == ["2", "5", "7"]

    def test_too_few_layers_raises(self, rng):
        model = Sequential(Linear(4, 4, rng=rng), Linear(4, 2, rng=rng))
        with pytest.raises(ValueError):
            quantizable_layer_names(model)

    def test_quantize_model_replaces_layers(self):
        model = small_cnn()
        quantize_model(model, max_bits=4)
        layers = quantized_layers(model)
        assert set(layers) == {"2", "5"}
        assert isinstance(layers["2"], QConv2d)
        assert isinstance(layers["5"], QLinear)

    def test_quantize_model_preserves_weights(self):
        model = small_cnn()
        original = model[2].weight.data.copy()
        quantize_model(model, max_bits=4)
        np.testing.assert_array_equal(quantized_layers(model)["2"].weight.data, original)

    def test_quantize_model_idempotent(self):
        model = small_cnn()
        quantize_model(model, max_bits=4)
        quantize_model(model, max_bits=4)  # second call is a no-op
        assert len(quantized_layers(model)) == 2

    def test_first_and_last_remain_float(self):
        model = small_cnn()
        quantize_model(model, max_bits=4)
        assert type(model[0]) is Conv2d
        assert type(model[7]) is Linear

    def test_extract_and_apply_bit_map_roundtrip(self):
        model = small_cnn()
        quantize_model(model, max_bits=4)
        layers = quantized_layers(model)
        layers["2"].set_bits(np.array([0, 1, 2, 3, 4, 4]))
        bit_map = extract_bit_map(model)

        other = small_cnn()
        quantize_model(other, max_bits=4)
        apply_bit_map(other, bit_map)
        np.testing.assert_array_equal(
            quantized_layers(other)["2"].bits, np.array([0, 1, 2, 3, 4, 4])
        )

    def test_apply_bit_map_unknown_layer_raises(self):
        model = small_cnn()
        quantize_model(model, max_bits=4)
        bogus = BitWidthMap({"nope": np.array([1])}, {"nope": 1})
        with pytest.raises(KeyError):
            apply_bit_map(model, bogus)

    def test_extract_bit_map_no_quant_layers_raises(self):
        with pytest.raises(ValueError):
            extract_bit_map(small_cnn())

    def test_calibration_initializes_observers(self, rng):
        model = small_cnn()
        quantize_model(model, max_bits=4, act_bits=2)
        images = rng.standard_normal((4, 3, 8, 8))
        calibrate_activations(model, [images])
        for layer in quantized_layers(model).values():
            assert layer.act_observer.initialized
            assert not layer.calibrating

    def test_calibration_restores_training_mode(self, rng):
        model = small_cnn()
        quantize_model(model, max_bits=4, act_bits=2)
        model.train()
        calibrate_activations(model, [rng.standard_normal((2, 3, 8, 8))])
        assert model.training

    def test_eval_forward_deterministic_after_calibration(self, rng):
        model = small_cnn()
        quantize_model(model, max_bits=3, act_bits=2)
        calibrate_activations(model, [rng.standard_normal((4, 3, 8, 8))])
        model.eval()
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        out1 = model(x).data.copy()
        out2 = model(x).data.copy()
        np.testing.assert_array_equal(out1, out2)
