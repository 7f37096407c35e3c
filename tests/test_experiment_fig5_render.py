"""Tests for the Figure 5 experiment result container and rendering."""


from repro.experiments.fig5 import BIT_SETTINGS, Fig5Result, render


def make_result():
    result = Fig5Result(fp_accuracy=0.86)
    for i, setting in enumerate(BIT_SETTINGS):
        result.cq_accuracy[setting] = 0.5 + 0.1 * i
        result.wn_accuracy[setting] = 0.45 + 0.1 * i
        result.cq_avg_bits[setting] = float(setting[0]) - 0.05
        result.wn_overflow[setting] = 0.01 * i
    return result


class TestFig5Render:
    def test_all_settings_rendered(self):
        text = render(make_result())
        for weight_bits, act_bits in BIT_SETTINGS:
            assert f"{weight_bits}.0/{act_bits}.0" in text

    def test_fp_reference_included(self):
        assert "0.8600" in render(make_result())

    def test_missing_setting_renders_nan(self):
        result = Fig5Result(fp_accuracy=0.9)
        text = render(result)
        assert "nan" in text

    def test_paper_settings_are_asymmetric(self):
        # The figure's protocol quantizes activations more finely than
        # weights at every setting.
        for weight_bits, act_bits in BIT_SETTINGS:
            assert act_bits > weight_bits

    def test_budgets_recorded_under_setting(self):
        result = make_result()
        for setting in BIT_SETTINGS:
            assert result.cq_avg_bits[setting] <= setting[0]
