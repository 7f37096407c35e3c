"""Tests for the granularity experiment's result container and rendering."""


from repro.experiments.granularity import GranularityResult, render
from repro.hw.report import CostSummary


def make_summary(label: str, energy: float) -> CostSummary:
    return CostSummary(
        label=label,
        average_bits=2.0,
        storage_kib=10.0,
        energy_uj=energy,
        latency_us=5.0,
        fp32_storage_kib=160.0,
        fp32_energy_uj=40.0,
        fp32_latency_us=50.0,
    )


def make_result() -> GranularityResult:
    result = GranularityResult(fp_accuracy=0.95, budget=2.0)
    for name, accuracy, energy in (
        ("uniform", 0.88, 2.5),
        ("layerwise", 0.90, 2.4),
        ("cq", 0.93, 2.3),
    ):
        result.accuracy[name] = accuracy
        result.avg_bits[name] = 2.0
        result.cost[name] = make_summary(name, energy)
    return result


class TestRender:
    def test_all_granularities_listed(self):
        table = render(make_result())
        for name in ("uniform", "layerwise", "cq"):
            assert name in table

    def test_fp_reference_shown(self):
        assert "0.9500" in render(make_result())

    def test_cost_columns_present(self):
        table = render(make_result())
        assert "energy (uJ)" in table
        assert "storage" in table

    def test_savings_formatted_as_multipliers(self):
        table = render(make_result())
        assert "x16.0" in table  # 160 KiB fp32 / 10 KiB quantized


class TestCostSummaryMath:
    def test_compression(self):
        assert make_summary("s", 2.0).compression == 16.0

    def test_energy_saving(self):
        assert make_summary("s", 2.0).energy_saving == 20.0

    def test_speedup(self):
        assert make_summary("s", 2.0).speedup == 10.0

    def test_zero_cost_reports_infinity(self):
        summary = CostSummary(
            label="degenerate",
            average_bits=0.0,
            storage_kib=0.0,
            energy_uj=0.0,
            latency_us=0.0,
            fp32_storage_kib=1.0,
            fp32_energy_uj=1.0,
            fp32_latency_us=1.0,
        )
        assert summary.compression == float("inf")
        assert summary.energy_saving == float("inf")
        assert summary.speedup == float("inf")
