"""Tests for repro.hw.energy: bit-scaled energy accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.energy import EnergyModel, EnergyParams
from repro.hw.profile import profile_model
from repro.models.vgg import VGGSmall
from repro.quant.qmodules import extract_bit_map, quantize_model


@pytest.fixture(scope="module")
def vgg_setup():
    model = VGGSmall(num_classes=4, image_size=8, width=8, rng=np.random.default_rng(0))
    profile = profile_model(model, (3, 8, 8))
    quantize_model(model, max_bits=4, act_bits=4)
    bit_map = extract_bit_map(model)
    return profile, bit_map


class TestEnergyParams:
    def test_reference_mult_energy(self):
        params = EnergyParams()
        assert params.mult_energy(8, 8) == pytest.approx(params.mult_8x8_pj)

    def test_mult_energy_quadratic_scaling(self):
        params = EnergyParams()
        assert params.mult_energy(4, 4) == pytest.approx(params.mult_8x8_pj / 4)
        assert params.mult_energy(2, 8) == pytest.approx(params.mult_8x8_pj / 4)

    def test_zero_bits_cost_nothing_to_multiply(self):
        assert EnergyParams().mult_energy(0, 8) == 0.0

    def test_negative_bits_rejected(self):
        with pytest.raises(ValueError):
            EnergyParams().mult_energy(-1, 8)

    def test_add_energy_scales_with_accumulator(self):
        narrow = EnergyParams(accumulator_bits=16)
        wide = EnergyParams(accumulator_bits=32)
        assert narrow.add_energy() == pytest.approx(wide.add_energy() / 2)


class TestLayerEnergy:
    def test_pruned_filters_contribute_nothing(self, vgg_setup):
        profile, bit_map = vgg_setup
        name = bit_map.layers()[0]
        layer = profile[name]
        model = EnergyModel()

        full = model.layer_energy(layer, np.full(layer.num_filters, 4), act_bits=4)
        half_bits = np.full(layer.num_filters, 4)
        half_bits[: layer.num_filters // 2] = 0
        half = model.layer_energy(layer, half_bits, act_bits=4)

        surviving = layer.num_filters - layer.num_filters // 2
        assert half.active_macs == surviving * layer.macs_per_filter
        assert half.compute_pj == pytest.approx(
            full.compute_pj * surviving / layer.num_filters
        )
        assert half.sram_pj < full.sram_pj

    def test_scalar_bits_broadcast(self, vgg_setup):
        profile, bit_map = vgg_setup
        name = bit_map.layers()[0]
        layer = profile[name]
        model = EnergyModel()
        scalar = model.layer_energy(layer, 3, act_bits=4)
        array = model.layer_energy(layer, np.full(layer.num_filters, 3), act_bits=4)
        assert scalar.total_pj == pytest.approx(array.total_pj)

    def test_wrong_filter_count_rejected(self, vgg_setup):
        profile, bit_map = vgg_setup
        layer = profile[bit_map.layers()[0]]
        with pytest.raises(ValueError, match="per-filter bit-widths"):
            EnergyModel().layer_energy(layer, np.ones(layer.num_filters + 1), act_bits=4)

    def test_negative_act_bits_rejected(self, vgg_setup):
        profile, bit_map = vgg_setup
        layer = profile[bit_map.layers()[0]]
        with pytest.raises(ValueError):
            EnergyModel().layer_energy(layer, 4, act_bits=-1)

    @given(bits=st.integers(min_value=1, max_value=8))
    @settings(max_examples=8, deadline=None)
    def test_energy_monotone_in_weight_bits(self, vgg_setup, bits):
        profile, bit_map = vgg_setup
        layer = profile[bit_map.layers()[0]]
        model = EnergyModel()
        lower = model.layer_energy(layer, bits, act_bits=4)
        higher = model.layer_energy(layer, bits + 1, act_bits=4)
        assert higher.total_pj > lower.total_pj


class TestModelEnergy:
    def test_quantized_beats_fp32(self, vgg_setup):
        profile, bit_map = vgg_setup
        model = EnergyModel()
        quantized = model.model_energy(profile, bit_map, act_bits=4, unmapped="skip")
        fp = model.fp32_energy(profile.subset(bit_map.layers()))
        assert quantized.total_pj < fp.total_pj

    def test_unmapped_fp32_includes_first_and_last(self, vgg_setup):
        profile, bit_map = vgg_setup
        model = EnergyModel()
        with_ends = model.model_energy(profile, bit_map, act_bits=4, unmapped="fp32")
        without = model.model_energy(profile, bit_map, act_bits=4, unmapped="skip")
        assert len(with_ends) == len(profile)
        assert len(without) == len(bit_map.layers())
        assert with_ends.total_pj > without.total_pj

    def test_invalid_unmapped_mode(self, vgg_setup):
        profile, bit_map = vgg_setup
        with pytest.raises(ValueError, match="unmapped"):
            EnergyModel().model_energy(profile, bit_map, act_bits=4, unmapped="zero")

    def test_report_totals_sum_layers(self, vgg_setup):
        profile, bit_map = vgg_setup
        report = EnergyModel().model_energy(profile, bit_map, act_bits=4, unmapped="skip")
        assert report.total_pj == pytest.approx(
            sum(report[name].total_pj for name in report)
        )
        assert report.total_pj == pytest.approx(report.compute_pj + report.memory_pj)

    def test_skewed_arrangement_cheaper_than_uniform_same_average(self, vgg_setup):
        """A CQ-like arrangement (prune some, boost others) saves energy vs
        uniform at the same *average* bits because compute scales
        super-linearly in bits while pruning removes MACs entirely."""
        profile, bit_map = vgg_setup
        model = EnergyModel()
        name = bit_map.layers()[0]
        layer = profile[name]
        n = layer.num_filters
        assert n % 2 == 0
        uniform = np.full(n, 2)
        skewed = np.zeros(n, dtype=int)
        skewed[: n // 2] = 4  # same average of 2 bits
        assert uniform.mean() == skewed.mean()
        e_uniform = model.layer_energy(layer, uniform, act_bits=2)
        e_skewed = model.layer_energy(layer, skewed, act_bits=2)
        # mult energy: uniform n*(2*2)=4n vs skewed (n/2)*(4*4)=8n — but
        # skewed halves the adds, SRAM act reads and MAC count; the memory
        # side dominates at these widths.
        assert e_skewed.sram_pj < e_uniform.sram_pj
        assert e_skewed.active_macs == e_uniform.active_macs // 2
