"""Tests for the analysis/reporting helpers behind the figures."""

from collections import OrderedDict

import numpy as np
import pytest

from repro.analysis import (
    ascii_bars,
    ascii_histogram,
    ascii_table,
    bit_width_distribution,
    layer_bit_summary,
    score_histogram,
    sorted_score_curve,
    sorted_score_curves,
)
from repro.analysis.histograms import histogram_skewness, score_histograms
from repro.core.importance import ImportanceResult
from repro.quant import BitWidthMap


class TestHistograms:
    def test_score_histogram_range(self):
        counts, edges = score_histogram(np.array([0.5, 5.0, 9.5]), num_classes=10, bins=10)
        assert counts.sum() == 3
        assert edges[0] == 0.0 and edges[-1] == 10.0

    def test_invalid_bins(self):
        with pytest.raises(ValueError):
            score_histogram(np.zeros(3), 10, bins=0)

    def test_score_histograms_reduce_conv_layers(self):
        importance = ImportanceResult(
            neuron_scores=OrderedDict(
                [("conv", np.ones((3, 2, 2)) * 4.0), ("fc", np.array([1.0, 9.0]))]
            ),
            beta=OrderedDict(),
            num_classes=10,
        )
        histograms = score_histograms(importance, bins=10)
        counts_conv, _ = histograms["conv"]
        assert counts_conv.sum() == 3  # one entry per filter, not per neuron

    def test_skewness_sign(self):
        left_heavy = np.array([10, 3, 1, 0, 0])  # mass at low scores
        right_heavy = left_heavy[::-1].copy()
        edges = np.linspace(0, 5, 6)
        assert histogram_skewness(left_heavy, edges) > 0
        assert histogram_skewness(right_heavy, edges) < 0

    def test_skewness_empty(self):
        assert histogram_skewness(np.zeros(3), np.linspace(0, 3, 4)) == 0.0

    def test_skewness_uniform_zero(self):
        counts = np.array([5, 5, 5, 5])
        assert histogram_skewness(counts, np.linspace(0, 4, 5)) == pytest.approx(0.0)


class TestArrangement:
    def test_sorted_curve_ascending(self, rng):
        curve = sorted_score_curve(rng.standard_normal(20))
        assert np.all(np.diff(curve) >= 0)

    def test_sorted_curves_per_layer(self, rng):
        curves = sorted_score_curves({"a": rng.random(5), "b": rng.random(3)})
        assert set(curves) == {"a", "b"}

    def test_bit_width_distribution_delegates_to_histogram(self):
        bit_map = BitWidthMap({"l": np.array([0, 4])}, {"l": 10})
        distribution = bit_width_distribution(bit_map, 4)
        assert distribution[0] == 10 and distribution[4] == 10

    def test_layer_bit_summary_contents(self):
        scores = {"l": np.array([1.0, 5.0, 9.0])}
        bit_map = BitWidthMap({"l": np.array([0, 2, 4])}, {"l": 3})
        summary = layer_bit_summary(scores, bit_map, np.array([2.0, 4.0, 6.0, 8.0]))
        info = summary["l"]
        assert info["num_filters"] == 3
        assert info["filters_per_bit"] == {0: 1, 2: 1, 4: 1}
        np.testing.assert_array_equal(info["sorted_scores"], [1.0, 5.0, 9.0])


class TestRender:
    def test_table_alignment(self):
        text = ascii_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.split("\n")
        assert len({line.index("|") for line in lines if "|" in line}) == 1

    def test_table_title(self):
        text = ascii_table(["x"], [[1]], title="My Table")
        assert text.startswith("My Table")

    def test_table_cell_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            ascii_table(["a", "b"], [[1]])

    def test_table_float_formatting(self):
        text = ascii_table(["v"], [[0.123456]])
        assert "0.1235" in text

    def test_bars_scale_to_max(self):
        text = ascii_bars(["a", "b"], [1.0, 2.0], width=10)
        lines = text.split("\n")
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_bars_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            ascii_bars(["a"], [1.0, 2.0])

    def test_bars_all_zero(self):
        text = ascii_bars(["a"], [0.0])
        assert "#" not in text

    def test_histogram_requires_consistent_edges(self):
        with pytest.raises(ValueError):
            ascii_histogram([1, 2], [0.0, 1.0])

    def test_histogram_renders(self):
        text = ascii_histogram([1, 3], [0.0, 1.0, 2.0], title="H")
        assert text.startswith("H")
        assert "#" in text
