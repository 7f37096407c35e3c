"""Figure 7 benchmark: weight counts per bit-width across the full grid.

For every model/dataset panel and every bit setting, searches the
arrangement and prints the weight-count histogram over bit-widths 0..6.

Shape assertions: lower budgets shift weight mass toward lower
bit-widths, and each distribution's weighted mean equals the measured
average bit-width.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import fig7
from repro.experiments.fig4 import PANELS


@pytest.mark.parametrize("panel", PANELS, ids=[f"{m}-{d}" for m, d in PANELS])
def test_fig7_panel(benchmark, scale, panel):
    result = run_once(
        benchmark, lambda: fig7.run(scale=scale, panels=[panel])
    )

    print()
    print(fig7.render(result))

    key = panel
    distributions = result.distributions[key]

    for bits, distribution in distributions.items():
        total = sum(distribution.values())
        assert total > 0
        # Histogram mean must equal the reported average bit-width.
        mean = sum(b * c for b, c in distribution.items()) / total
        assert mean == pytest.approx(result.avg_bits[key][bits], abs=1e-9)
        # And meet the budget.
        assert result.avg_bits[key][bits] <= bits + 1e-9

    # Monotone budget effect: the mean bit-width grows with the budget.
    means = [result.avg_bits[key][bits] for bits in result.bit_settings]
    assert all(a <= b + 1e-9 for a, b in zip(means, means[1:])), means
