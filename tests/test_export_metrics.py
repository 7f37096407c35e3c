"""Tests for integer export, quantization metrics and the report."""

import math

import numpy as np
import pytest

from repro.models.mlp import MLP
from repro.quant import quantize_model, quantized_layers
from repro.quant.export import (
    FLOAT32_BITS,
    export_quantized_weights,
    verify_export,
)
from repro.quant.metrics import pruned_weight_fraction, weight_sqnr_db


def quantized_mlp(bits_fc1=None, bits_fc2=None, max_bits=4):
    model = MLP(10, (8, 6, 5), 3, rng=np.random.default_rng(0))
    quantize_model(model, max_bits=max_bits)
    layers = quantized_layers(model)
    if bits_fc1 is not None:
        layers["fc1"].set_bits(np.asarray(bits_fc1))
    if bits_fc2 is not None:
        layers["fc2"].set_bits(np.asarray(bits_fc2))
    return model, layers


class TestExport:
    def test_roundtrip_bit_exact(self):
        model, _ = quantized_mlp(bits_fc1=[0, 1, 2, 3, 4, 4], bits_fc2=[2] * 5)
        assert verify_export(model)

    def test_reconstruct_matches_effective_weight(self):
        model, layers = quantized_mlp(bits_fc1=[1, 2, 3, 4, 0, 2])
        export = export_quantized_weights(model)
        rebuilt = export.layers["fc1"].reconstruct()
        np.testing.assert_allclose(
            rebuilt, layers["fc1"].effective_weight().data, atol=1e-12
        )

    def test_pruned_filter_has_empty_codes(self):
        model, _ = quantized_mlp(bits_fc1=[0, 4, 4, 4, 4, 4])
        export = export_quantized_weights(model)
        assert len(export.layers["fc1"].codes[0]) == 0
        np.testing.assert_array_equal(
            export.layers["fc1"].reconstruct()[0], np.zeros(8)
        )

    def test_codes_within_level_range(self):
        model, _ = quantized_mlp(bits_fc1=[2] * 6)
        export = export_quantized_weights(model)
        for code in export.layers["fc1"].codes:
            assert np.all(code >= 0)
            assert np.all(code <= 3)  # 2 bits -> 4 levels

    def test_payload_bits_formula(self):
        model, _ = quantized_mlp(bits_fc1=[2] * 6)
        export = export_quantized_weights(model)
        # fc1: 6 filters x 8 inputs x 2 bits
        assert export.layers["fc1"].payload_bits == 6 * 8 * 2

    def test_metadata_bits(self):
        model, _ = quantized_mlp()
        export = export_quantized_weights(model)
        assert export.layers["fc1"].metadata_bits == 2 * 64 + 8 * 6

    def test_compression_ratio_improves_with_fewer_bits(self):
        model_high, _ = quantized_mlp(bits_fc1=[4] * 6, bits_fc2=[4] * 5)
        model_low, _ = quantized_mlp(bits_fc1=[1] * 6, bits_fc2=[1] * 5)
        high = export_quantized_weights(model_high).compression_ratio()
        low = export_quantized_weights(model_low).compression_ratio()
        assert low > high > 1.0

    def test_unquantized_layers_accounted(self):
        model, _ = quantized_mlp()
        export = export_quantized_weights(model)
        # fc0 (10->8) and the output fc3 (5->3) stay FP32, with biases.
        expected = FLOAT32_BITS * ((10 * 8 + 8) + (5 * 3 + 3))
        assert export.unquantized_weight_bits == expected

    def test_export_without_quantized_layers_raises(self):
        model = MLP(10, (8, 6), 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            export_quantized_weights(model)

    def test_size_report_mentions_layers(self):
        model, _ = quantized_mlp()
        text = export_quantized_weights(model).size_report()
        assert "fc1" in text and "KiB" in text


class TestMetrics:
    def test_sqnr_increases_with_bits(self):
        values = []
        for bits in (1, 2, 4):
            model, _ = quantized_mlp(bits_fc1=[bits] * 6)
            values.append(weight_sqnr_db(model)["fc1"])
        assert values[0] < values[1] < values[2]

    def test_sqnr_infinite_for_lossless(self):
        model, layers = quantized_mlp()
        for layer in layers.values():
            layer.weight_quant_enabled = False
        assert all(v == math.inf for v in weight_sqnr_db(model).values())

    def test_pruned_fraction(self):
        model, _ = quantized_mlp(bits_fc1=[0] * 6, bits_fc2=[4] * 5)
        expected = (8 * 6) / (8 * 6 + 6 * 5)
        assert pruned_weight_fraction(model) == pytest.approx(expected)

    def test_metrics_raise_without_quantized_layers(self):
        model = MLP(10, (8, 6), 3, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            pruned_weight_fraction(model)


class TestReport:
    def test_summarize_contains_key_metrics(self, tiny_dataset, trained_mlp):
        from repro.core import CQConfig, ClassBasedQuantizer
        from repro.core.report import summarize

        config = CQConfig(
            target_avg_bits=2.0, max_bits=4, step=0.5, act_bits=None,
            samples_per_class=4, refine_epochs=2, refine_batch_size=25,
        )
        result = ClassBasedQuantizer(config).quantize(trained_mlp, tiny_dataset)
        text = summarize(result)
        assert "accuracy" in text
        assert "average weight bits" in text
        assert "per-layer arrangement" in text
        assert "KiB" in text
