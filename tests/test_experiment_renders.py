"""Tests for figure render functions using synthetic result objects.

These cover the formatting layer of every benchmark without any
training, so regressions in the harness output surface in seconds.
"""

from collections import OrderedDict

import numpy as np

from repro.core.config import CQConfig
from repro.core.search import SearchResult, SearchStep
from repro.quant.bitmap import BitWidthMap


def make_search_result():
    bit_map = BitWidthMap(
        {"conv1": np.array([0, 2, 4]), "fc5": np.array([1, 3])},
        {"conv1": 9, "fc5": 10},
    )
    steps = [
        SearchStep("prune", 1, 0.5, 0.8, 3.5, 0.5),
        SearchStep("prune", 1, 1.0, 0.45, 3.1, 0.5),
        SearchStep("squeeze", 4, 9.0, 0.44, 2.0, 0.26),
    ]
    return SearchResult(
        thresholds=np.array([1.0, 2.0, 3.0, 9.0]),
        bit_map=bit_map,
        steps=steps,
        final_accuracy=0.44,
        evaluations=3,
    )


class TestFig3Render:
    def test_render_contains_snapshots(self):
        from repro.experiments.fig3 import Fig3Result, ThresholdSnapshot, render

        result = Fig3Result(
            search=make_search_result(),
            snapshots=[
                ThresholdSnapshot(1, 1.0, 0.45, 3.1, 0.5, "prune"),
                ThresholdSnapshot(4, 9.0, 0.44, 2.0, 0.26, "squeeze"),
            ],
            sorted_scores={},
            config=CQConfig(target_avg_bits=2.0),
        )
        text = render(result)
        assert "p_1" in text and "p_4" in text
        assert "squeeze" in text
        assert "final thresholds" in text


class TestFig4Render:
    def test_render_tables_per_panel(self):
        from repro.experiments.fig4 import Fig4Result, PanelResult, render

        panel = PanelResult(
            model_name="vgg-small",
            dataset_name="synth10",
            fp_accuracy=0.95,
            cq_accuracy={2: 0.80, 3: 0.90, 4: 0.94},
            apn_accuracy={2: 0.78, 3: 0.89, 4: 0.93},
            cq_avg_bits={2: 1.98, 3: 2.97, 4: 3.96},
        )
        text = render(Fig4Result(panels=[panel]))
        assert "vgg-small on synth10" in text
        assert "2.0/2.0" in text and "4.0/4.0" in text
        assert "0.8000" in text

    def test_render_missing_setting_shows_nan(self):
        from repro.experiments.fig4 import Fig4Result, PanelResult, render

        panel = PanelResult("m", "d", 0.9)
        text = render(Fig4Result(panels=[panel]))
        assert "nan" in text


class TestFig5Render:
    def test_render_settings(self):
        from repro.experiments.fig5 import Fig5Result, render

        result = Fig5Result(
            fp_accuracy=0.9,
            cq_accuracy={(1, 3): 0.7, (1, 7): 0.72, (2, 4): 0.8, (2, 7): 0.82},
            wn_accuracy={(1, 3): 0.6, (1, 7): 0.65, (2, 4): 0.7, (2, 7): 0.75},
            cq_avg_bits={(1, 3): 0.98, (1, 7): 0.98, (2, 4): 1.95, (2, 7): 1.95},
            wn_overflow={(1, 3): 0.0, (1, 7): 0.0, (2, 4): 0.01, (2, 7): 0.0},
        )
        text = render(result)
        assert "1.0/3.0" in text and "2.0/7.0" in text
        assert "FP reference accuracy" in text


class TestFig6Render:
    def test_render_layer_rows(self):
        from repro.experiments.fig6 import Fig6Result, render

        summary = OrderedDict(
            [
                (
                    "conv1",
                    {
                        "sorted_scores": np.array([0.5, 2.0, 9.0]),
                        "thresholds": np.array([1.0, 2.0, 3.0, 9.0]),
                        "filters_per_bit": {0: 1, 2: 1, 4: 1},
                        "num_filters": 3,
                    },
                )
            ]
        )
        result = Fig6Result(
            summary=summary,
            thresholds=np.array([1.0, 2.0, 3.0, 9.0]),
            avg_bits=2.0,
            search=make_search_result(),
            config=CQConfig(target_avg_bits=2.0, max_bits=4),
        )
        text = render(result)
        assert "layer-1 (conv1)" in text
        assert "thresholds:" in text


class TestFig7Render:
    def test_render_distributions(self):
        from repro.experiments.fig7 import Fig7Result, render

        result = Fig7Result(
            distributions={
                ("vgg-small", "synth10"): {
                    2: {0: 100, 1: 0, 2: 50, 3: 0, 4: 50, 5: 0, 6: 0},
                    3: {0: 50, 1: 0, 2: 50, 3: 50, 4: 50, 5: 0, 6: 0},
                    4: {0: 0, 1: 0, 2: 0, 3: 50, 4: 100, 5: 50, 6: 0},
                }
            },
            avg_bits={("vgg-small", "synth10"): {2: 1.5, 3: 2.25, 4: 4.0}},
        )
        text = render(result)
        assert "vgg-small" in text
        assert "0-bit" in text and "6-bit" in text


class TestFig2Render:
    def test_render_histograms(self):
        from repro.experiments.fig2 import Fig2Result, render

        histograms = OrderedDict(
            [("conv0", (np.array([1, 2, 1]), np.array([0.0, 3.3, 6.6, 10.0])))]
        )
        result = Fig2Result(
            histograms=histograms,
            skewness=OrderedDict([("conv0", 0.5)]),
            importance=None,
            fp_accuracy=0.9,
            num_classes=10,
        )
        text = render(result)
        assert "Figure 2" in text
        assert "conv0" in text
        assert "skewness" in text


class TestAblationsRender:
    def test_render_variants(self):
        from repro.experiments.ablations import AblationResult, render

        result = AblationResult(
            accuracy=OrderedDict(
                [("cq-max-kd", 0.8), ("random-kd", 0.5)]
            ),
            avg_bits=OrderedDict([("cq-max-kd", 1.98), ("random-kd", 1.99)]),
            fp_accuracy=0.95,
            budget=2.0,
        )
        text = render(result)
        assert "cq-max-kd" in text and "random-kd" in text
        assert "FP reference" in text
