"""Tests for the histogram observer and result IO."""

import json

import numpy as np
import pytest

from repro.experiments.io import load_result, save_result
from repro.quant.histogram_observer import HistogramObserver


class TestHistogramObserver:
    def test_observes_and_initializes(self):
        obs = HistogramObserver(num_bins=64)
        obs.observe(np.random.default_rng(0).uniform(0, 5, 1000))
        assert obs.initialized
        assert obs.range_max == pytest.approx(5.0, rel=0.01)

    def test_negative_values_ignored(self):
        obs = HistogramObserver(num_bins=64)
        obs.observe(np.array([-3.0, -1.0, 2.0]))
        assert obs.range_max == pytest.approx(2.0)

    def test_uninitialized_raises(self):
        with pytest.raises(RuntimeError):
            HistogramObserver().optimal_range(4)

    def test_invalid_params_raise(self):
        with pytest.raises(ValueError):
            HistogramObserver(num_bins=2)
        with pytest.raises(ValueError):
            HistogramObserver(candidates=1)
        obs = HistogramObserver()
        obs.observe(np.ones(10))
        with pytest.raises(ValueError):
            obs.optimal_range(0)

    def test_optimal_range_within_observed(self):
        obs = HistogramObserver()
        obs.observe(np.random.default_rng(0).uniform(0, 3, 5000))
        _, clip = obs.optimal_range(4)
        assert 0 < clip <= 3.0 + 1e-9

    def test_outlier_clipped_at_low_bits(self):
        """With an extreme outlier, the MSE-optimal 2-bit clip should sit
        far below the outlier (where the mass is)."""
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 1, 20000)
        values[0] = 100.0
        obs = HistogramObserver(num_bins=512, candidates=128)
        obs.observe(values)
        _, clip = obs.optimal_range(2)
        assert clip < 10.0

    def test_higher_bits_allow_wider_clip(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([rng.uniform(0, 1, 5000), rng.uniform(0, 4, 500)])
        obs = HistogramObserver(num_bins=256, candidates=64)
        obs.observe(values)
        _, clip2 = obs.optimal_range(2)
        _, clip8 = obs.optimal_range(8)
        assert clip8 >= clip2 - 1e-9

    def test_rebinning_preserves_total_count(self):
        obs = HistogramObserver(num_bins=64)
        obs.observe(np.random.default_rng(0).uniform(0, 1, 1000))
        count_before = obs.counts.sum()
        obs.observe(np.array([50.0]))  # forces rebin
        assert obs.counts.sum() == pytest.approx(count_before + 1)

    def test_reset(self):
        obs = HistogramObserver()
        obs.observe(np.ones(5))
        obs.reset()
        assert not obs.initialized


class TestResultIO:
    def test_roundtrip_dataclass(self, tmp_path):
        from repro.experiments.fig4 import PanelResult

        panel = PanelResult(
            model_name="vgg-small",
            dataset_name="synth10",
            fp_accuracy=0.9,
            cq_accuracy={2: 0.8},
            apn_accuracy={2: 0.75},
            cq_avg_bits={2: 1.97},
        )
        path = tmp_path / "panel.json"
        save_result(panel, path, metadata={"scale": "tiny"})
        loaded = load_result(path)
        assert loaded["result"]["fp_accuracy"] == 0.9
        assert loaded["result"]["cq_accuracy"]["2"] == 0.8
        assert loaded["metadata"]["scale"] == "tiny"

    def test_numpy_values_converted(self, tmp_path):
        payload = {"array": np.arange(3), "scalar": np.float64(1.5)}
        path = tmp_path / "x.json"
        save_result(payload, path)
        loaded = load_result(path)
        assert loaded["result"]["array"] == [0, 1, 2]
        assert loaded["result"]["scalar"] == 1.5

    def test_tuple_keys_flattened(self, tmp_path):
        payload = {(1, 3): 0.5}
        path = tmp_path / "y.json"
        save_result(payload, path)
        assert load_result(path)["result"]["1-3"] == 0.5

    def test_nan_becomes_null(self, tmp_path):
        path = tmp_path / "z.json"
        save_result({"value": float("nan")}, path)
        raw = json.loads(path.read_text())
        assert raw["result"]["value"] is None

    def test_numpy_nonfinite_roundtrip_is_strict_json(self, tmp_path):
        """Regression: np.floating NaN/inf used to be converted with
        ``float()`` before the finite check, leaking non-standard
        ``NaN``/``Infinity`` tokens into the emitted JSON."""
        payload = {
            "np_nan": np.float64("nan"),
            "np_inf": np.float32("inf"),
            "np_ninf": np.float64("-inf"),
            "py_nan": float("nan"),
            "array": np.array([1.0, np.nan, np.inf]),
            "nested": {"deep": [np.float64("nan"), 2.0]},
        }
        path = tmp_path / "nonfinite.json"
        save_result(payload, path, metadata={"fp_acc": np.float64("nan")})
        text = path.read_text()
        for token in ("NaN", "Infinity"):
            assert token not in text

        def _reject(token):
            raise AssertionError(f"non-standard JSON token {token!r} emitted")

        loaded = json.loads(text, parse_constant=_reject)  # strict parse
        result = loaded["result"]
        assert result["np_nan"] is None
        assert result["np_inf"] is None
        assert result["np_ninf"] is None
        assert result["py_nan"] is None
        assert result["array"] == [1.0, None, None]
        assert result["nested"]["deep"] == [None, 2.0]
        assert loaded["metadata"]["fp_acc"] is None

    def test_finite_numpy_floats_survive(self, tmp_path):
        path = tmp_path / "finite.json"
        save_result({"v": np.float32(0.25), "a": np.array([0.5, -1.5])}, path)
        loaded = load_result(path)
        assert loaded["result"]["v"] == 0.25
        assert loaded["result"]["a"] == [0.5, -1.5]

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "a" / "b" / "c.json"
        save_result({"k": 1}, path)
        assert path.exists()

    def test_objects_with_to_dict_are_expanded(self, tmp_path):
        from repro.quant.bitmap import BitWidthMap

        bit_map = BitWidthMap({"conv": np.array([2, 0, 4])}, {"conv": 9})
        path = tmp_path / "map.json"
        save_result({"bit_map": bit_map}, path)
        loaded = load_result(path)
        assert loaded["result"]["bit_map"]["bits"]["conv"] == [2, 0, 4]
        assert loaded["result"]["bit_map"]["weights_per_filter"]["conv"] == 9

    def test_arbitrary_objects_fall_back_to_repr(self, tmp_path):
        class Opaque:
            def __repr__(self):
                return "<opaque thing>"

        path = tmp_path / "opaque.json"
        save_result({"obj": Opaque()}, path)
        assert load_result(path)["result"]["obj"] == "<opaque thing>"
