"""Tests for repro.quant.integer: integer-only execution of exported codes.

The key invariant: integer execution reproduces the fake-quantized
forward to float64 rounding, for any bit arrangement, with and without
activation quantization, on conv and linear layers and on whole models.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.vgg import VGGSmall
from repro.nn import Linear, Module
from repro.quant.integer import (
    IntegerLayerSpec,
    compile_integer_layer,
    integer_forward,
    integer_mode,
    max_acc_bits,
    verify_integer_equivalence,
)
from repro.quant.qmodules import (
    QConv2d,
    QLinear,
    calibrate_activations,
    quantize_model,
)
from repro.tensor.tensor import Tensor, no_grad


def make_qlinear(in_features=6, out_features=5, act_bits=None, seed=0):
    rng = np.random.default_rng(seed)
    layer = QLinear(in_features, out_features, max_bits=4, act_bits=act_bits, rng=rng)
    layer.weight.data[...] = rng.standard_normal((out_features, in_features))
    if layer.bias is not None:
        layer.bias.data[...] = rng.standard_normal(out_features)
    return layer


def make_qconv(in_channels=3, out_channels=4, k=3, act_bits=None, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    layer = QConv2d(
        in_channels, out_channels, k, max_bits=4, act_bits=act_bits, rng=rng, **kwargs
    )
    layer.weight.data[...] = rng.standard_normal(layer.weight.shape)
    if layer.bias is not None:
        layer.bias.data[...] = rng.standard_normal(out_channels)
    return layer


def fake_forward(layer, x: np.ndarray) -> np.ndarray:
    layer.eval()
    with no_grad():
        return layer(Tensor(x)).data.copy()


def calibrated(layer, x: np.ndarray):
    """Run one calibration batch so the activation observer has a range."""
    layer.calibrating = True
    with no_grad():
        layer(Tensor(x))
    layer.calibrating = False
    return layer


class TestLinearEquivalence:
    def test_weight_only_matches_fake_quant(self, rng):
        layer = make_qlinear()
        layer.set_bits(np.array([4, 3, 2, 1, 4]))
        x = rng.standard_normal((7, 6))
        spec = compile_integer_layer(layer, "fc")
        np.testing.assert_allclose(
            integer_forward(spec, x), fake_forward(layer, x), atol=1e-9
        )

    def test_with_activation_quantization(self, rng):
        layer = make_qlinear(act_bits=3)
        x = np.abs(rng.standard_normal((7, 6)))  # post-ReLU-like input
        calibrated(layer, x)
        spec = compile_integer_layer(layer, "fc")
        assert spec.act_bits == 3
        np.testing.assert_allclose(
            integer_forward(spec, x), fake_forward(layer, x), atol=1e-9
        )

    def test_pruned_neurons_output_bias_only(self, rng):
        layer = make_qlinear()
        layer.set_bits(np.array([0, 0, 0, 0, 0]))
        x = rng.standard_normal((4, 6))
        spec = compile_integer_layer(layer, "fc")
        out = integer_forward(spec, x)
        np.testing.assert_allclose(out, np.broadcast_to(layer.bias.data, out.shape))

    def test_no_bias_layer(self, rng):
        rng_local = np.random.default_rng(5)
        layer = QLinear(6, 5, bias=False, max_bits=4, rng=rng_local)
        layer.weight.data[...] = rng_local.standard_normal((5, 6))
        x = rng.standard_normal((3, 6))
        spec = compile_integer_layer(layer, "fc")
        np.testing.assert_allclose(
            integer_forward(spec, x), fake_forward(layer, x), atol=1e-9
        )

    def test_all_zero_weights_degenerate_range(self, rng):
        layer = make_qlinear()
        layer.weight.data[...] = 0.0
        x = rng.standard_normal((3, 6))
        spec = compile_integer_layer(layer, "fc")
        np.testing.assert_allclose(
            integer_forward(spec, x), fake_forward(layer, x), atol=1e-12
        )


class TestConvEquivalence:
    def test_weight_only_matches_fake_quant(self, rng):
        layer = make_qconv(padding=1)
        layer.set_bits(np.array([4, 2, 1, 3]))
        x = rng.standard_normal((2, 3, 6, 6))
        spec = compile_integer_layer(layer, "conv")
        np.testing.assert_allclose(
            integer_forward(spec, x), fake_forward(layer, x), atol=1e-9
        )

    def test_with_activation_quantization(self, rng):
        layer = make_qconv(act_bits=2, padding=1)
        x = np.abs(rng.standard_normal((2, 3, 6, 6)))
        calibrated(layer, x)
        spec = compile_integer_layer(layer, "conv")
        np.testing.assert_allclose(
            integer_forward(spec, x), fake_forward(layer, x), atol=1e-9
        )

    def test_strided_conv(self, rng):
        layer = make_qconv(stride=2, padding=1)
        x = rng.standard_normal((2, 3, 8, 8))
        spec = compile_integer_layer(layer, "conv")
        np.testing.assert_allclose(
            integer_forward(spec, x), fake_forward(layer, x), atol=1e-9
        )

    def test_mixed_pruned_filters(self, rng):
        layer = make_qconv(padding=1)
        layer.set_bits(np.array([0, 4, 0, 2]))
        x = rng.standard_normal((2, 3, 6, 6))
        spec = compile_integer_layer(layer, "conv")
        out = integer_forward(spec, x)
        np.testing.assert_allclose(out, fake_forward(layer, x), atol=1e-9)
        # Pruned channels carry only their bias.
        np.testing.assert_allclose(out[:, 0], layer.bias.data[0])


class TestCompile:
    def test_rejects_float_layer(self):
        with pytest.raises(TypeError, match="QConv2d/QLinear"):
            compile_integer_layer(Linear(4, 2))

    def test_uncalibrated_observer_raises(self):
        layer = make_qlinear(act_bits=3)
        with pytest.raises(RuntimeError, match="uncalibrated"):
            compile_integer_layer(layer, "fc")

    def test_codes_within_level_range(self, rng):
        layer = make_qlinear()
        layer.set_bits(np.array([4, 3, 2, 1, 0]))
        spec = compile_integer_layer(layer, "fc")
        for f, bits in enumerate(spec.bits_per_filter):
            assert spec.codes[f].min() >= 0
            assert spec.codes[f].max() <= max(0, 2 ** int(bits) - 1)

    def test_filter_scales_zero_for_pruned(self):
        layer = make_qlinear()
        layer.set_bits(np.array([0, 4, 0, 2, 1]))
        spec = compile_integer_layer(layer, "fc")
        scales = spec.filter_scales()
        assert scales[0] == 0.0 and scales[2] == 0.0
        assert (scales[[1, 3, 4]] > 0).all()

    def test_model_without_quantized_layers_raises(self):
        class Plain(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(4, 2)

            def forward(self, x):
                return self.fc(x)

        with pytest.raises(ValueError, match="no quantized layers"):
            with integer_mode(Plain()):
                pass


class TestModelLevel:
    @pytest.fixture(scope="class")
    def quantized_vgg(self):
        model = VGGSmall(num_classes=4, image_size=8, width=8, rng=np.random.default_rng(0))
        quantize_model(model, max_bits=4, act_bits=3)
        rng = np.random.default_rng(1)
        calibration = [rng.standard_normal((4, 3, 8, 8)) for _ in range(2)]
        calibrate_activations(model, calibration)
        model.eval()
        return model

    def test_whole_model_equivalence(self, quantized_vgg, rng):
        ok, diff = verify_integer_equivalence(
            quantized_vgg, rng.standard_normal((3, 3, 8, 8))
        )
        assert ok, f"integer execution diverged by {diff}"

    def test_integer_mode_restores_float_path(self, quantized_vgg, rng):
        x = Tensor(rng.standard_normal((2, 3, 8, 8)))
        with no_grad():
            before = quantized_vgg(x).data.copy()
            with integer_mode(quantized_vgg):
                pass
            after = quantized_vgg(x).data.copy()
        np.testing.assert_array_equal(before, after)

    def test_accumulator_width_tracked(self, quantized_vgg, rng):
        with no_grad():
            with integer_mode(quantized_vgg) as specs:
                quantized_vgg(Tensor(rng.standard_normal((2, 3, 8, 8))))
        # Activation quantization is on, so int x int MACs ran and the
        # accumulator profile must be populated and plausible.
        assert 0 < max_acc_bits(specs) <= 64

    def test_integer_mode_cleanup_on_error(self, quantized_vgg):
        with pytest.raises(RuntimeError, match="boom"):
            with integer_mode(quantized_vgg):
                raise RuntimeError("boom")
        layers = [
            m
            for _n, m in quantized_vgg.named_modules()
            if isinstance(m, (QConv2d, QLinear))
        ]
        assert all("forward" not in layer.__dict__ for layer in layers)


class TestPropertyEquivalence:
    @given(
        bits=st.lists(st.integers(min_value=0, max_value=4), min_size=5, max_size=5),
        act_bits=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_linear_equivalence_any_arrangement(self, bits, act_bits, seed):
        rng = np.random.default_rng(seed)
        layer = make_qlinear(act_bits=act_bits, seed=seed)
        layer.set_bits(np.array(bits))
        x = np.abs(rng.standard_normal((4, 6)))
        if act_bits is not None:
            calibrated(layer, x)
        spec = compile_integer_layer(layer, "fc")
        np.testing.assert_allclose(
            integer_forward(spec, x), fake_forward(layer, x), atol=1e-8
        )

    @given(
        bits=st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4),
        act_bits=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_conv_equivalence_any_arrangement(self, bits, act_bits, seed):
        rng = np.random.default_rng(seed)
        layer = make_qconv(act_bits=act_bits, seed=seed, padding=1)
        layer.set_bits(np.array(bits))
        x = np.abs(rng.standard_normal((2, 3, 5, 5)))
        if act_bits is not None:
            calibrated(layer, x)
        spec = compile_integer_layer(layer, "conv")
        np.testing.assert_allclose(
            integer_forward(spec, x), fake_forward(layer, x), atol=1e-8
        )


class TestAccumulatorBounds:
    """acc_bits_used must respect the arithmetic worst-case bound."""

    @given(
        w_bits=st.integers(min_value=1, max_value=4),
        a_bits=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_linear_acc_within_worst_case(self, w_bits, a_bits, seed):
        rng = np.random.default_rng(seed)
        layer = make_qlinear(act_bits=a_bits, seed=seed)
        layer.set_bits(np.full(5, w_bits))
        x = np.abs(rng.standard_normal((4, 6)))
        calibrated(layer, x)
        spec = compile_integer_layer(layer, "fc")
        integer_forward(spec, x)
        # Each output accumulates in_features products of codes bounded
        # by (2^w - 1)(2^a - 1).
        worst = 6 * (2**w_bits - 1) * (2**a_bits - 1)
        assert spec.acc_bits_used <= int(worst).bit_length() + 1

    def test_acc_bits_monotone_across_runs(self, rng):
        layer = make_qlinear(act_bits=4)
        small = np.abs(rng.standard_normal((4, 6))) * 0.1
        large = np.abs(rng.standard_normal((4, 6))) * 10.0
        calibrated(layer, large)  # range covers both inputs
        spec = compile_integer_layer(layer, "fc")
        integer_forward(spec, small)
        after_small = spec.acc_bits_used
        integer_forward(spec, large)
        assert spec.acc_bits_used >= after_small

    def test_weight_only_execution_does_not_track_acc(self, rng):
        layer = make_qlinear(act_bits=None)
        spec = compile_integer_layer(layer, "fc")
        integer_forward(spec, rng.standard_normal((4, 6)))
        # Float activations -> no integer accumulator profile.
        assert spec.acc_bits_used == 0


class TestExportCompileParity:
    """Regression: a spec compiled from the live model and a spec
    compiled from that model's *packed* artifact payload must be the
    same program — identical codes, bits, range and per-filter scales.
    This is what lets the serving integer backend skip float
    reconstruction entirely."""

    @pytest.fixture(scope="class")
    def quantized_vgg(self):
        model = VGGSmall(
            num_classes=4, image_size=8, width=8, rng=np.random.default_rng(0)
        )
        quantize_model(model, max_bits=4, act_bits=3)
        rng = np.random.default_rng(1)
        calibrate_activations(
            model, [rng.standard_normal((4, 3, 8, 8)) for _ in range(2)]
        )
        model.eval()
        return model

    def test_live_and_export_specs_identical(self, quantized_vgg):
        from repro.quant.export import export_quantized_weights
        from repro.quant.integer import compile_integer_layer_from_export
        from repro.quant.packing import deserialize_export, serialize_export
        from repro.quant.qmodules import quantized_layers

        # Through the packed bytes, not just the in-memory export.
        export = deserialize_export(
            serialize_export(export_quantized_weights(quantized_vgg))
        )
        layers = quantized_layers(quantized_vgg)
        assert set(export.layers) == set(layers)
        for name, layer in layers.items():
            live = compile_integer_layer(layer, name)
            packed = compile_integer_layer_from_export(
                layer, export.layers[name], name
            )
            np.testing.assert_array_equal(live.codes, packed.codes)
            np.testing.assert_array_equal(
                live.bits_per_filter, packed.bits_per_filter
            )
            assert live.weight_lower == packed.weight_lower
            assert live.weight_upper == packed.weight_upper
            assert (live.kind, live.stride, live.padding) == (
                packed.kind, packed.stride, packed.padding,
            )
            assert (live.act_bits, live.act_upper) == (
                packed.act_bits, packed.act_upper,
            )
            np.testing.assert_array_equal(
                live.filter_scales(), packed.filter_scales()
            )

    def test_export_spec_shape_mismatch_raises(self, quantized_vgg):
        from repro.quant.export import export_quantized_weights
        from repro.quant.integer import compile_integer_layer_from_export
        from repro.quant.qmodules import quantized_layers

        export = export_quantized_weights(quantized_vgg)
        layers = quantized_layers(quantized_vgg)
        names = list(layers)
        with pytest.raises(ValueError, match="shape"):
            compile_integer_layer_from_export(
                layers[names[0]], export.layers[names[-1]], names[0]
            )


class TestStrictVerifier:
    """verify_integer_equivalence(strict=True) failures must name the
    first offending layer and its max abs error (satellite of the
    serving-backend PR; mirrors verify_export(strict=True))."""

    def make_model(self):
        model = VGGSmall(
            num_classes=4, image_size=8, width=8, rng=np.random.default_rng(2)
        )
        quantize_model(model, max_bits=4)
        rng = np.random.default_rng(3)
        for layer in [
            m for _n, m in model.named_modules()
            if isinstance(m, (QConv2d, QLinear))
        ]:
            layer.set_bits(rng.integers(1, 5, size=layer.num_filters))
        model.eval()
        return model

    def test_strict_passes_on_clean_model(self, rng):
        from repro.quant.integer import IntegerEquivalenceError

        model = self.make_model()
        ok, diff = verify_integer_equivalence(
            model, rng.standard_normal((2, 3, 8, 8)), strict=True
        )
        assert ok and diff <= 1e-8

    def test_strict_failure_names_layer_and_error(self, rng):
        from repro.quant.integer import IntegerEquivalenceError

        model = self.make_model()
        x = rng.standard_normal((2, 3, 8, 8))
        with pytest.raises(IntegerEquivalenceError) as excinfo:
            # An absurd tolerance forces failure on rounding noise alone;
            # the message must still localize to a concrete layer.
            verify_integer_equivalence(model, x, atol=-1.0, strict=True)
        message = str(excinfo.value)
        assert "max abs error" in message
        assert "offending layer" in message
        # The named layer is a real quantized layer of the model.
        from repro.quant.qmodules import quantized_layers

        assert any(
            f"{name!r}" in message for name in quantized_layers(model)
        )

    def test_diagnose_orders_layers_by_execution(self, rng):
        from repro.quant.integer import diagnose_integer_equivalence
        from repro.quant.qmodules import quantized_layers

        model = self.make_model()
        report = diagnose_integer_equivalence(
            model, rng.standard_normal((2, 3, 8, 8))
        )
        assert [name for name, _err in report] == list(quantized_layers(model))
        assert all(err >= 0.0 for _name, err in report)
