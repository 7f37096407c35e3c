"""Figure 4 benchmark: CQ vs APN vs full precision.

Runs the paper's four panels ({VGG-small, ResNet-20-x1, ResNet-20-x5} x
{SynthCIFAR-10, SynthCIFAR-100}) at the 2.0/2.0, 3.0/3.0 and 4.0/4.0
weight/activation settings, printing one accuracy table per panel.

Shape assertions (the paper's qualitative claims, with slack for the
small-scale substrate):
- CQ's searched arrangement meets every average-bit budget;
- CQ is competitive with APN at matched settings (the paper reports CQ
  strictly better everywhere);
- accuracy is monotone-ish in the bit budget for CQ.
"""

import pytest

from benchmarks.conftest import run_once
from repro.experiments import fig4

# Panels are run as separate benchmark cases so timings are per-panel.
PANELS = fig4.PANELS


@pytest.mark.parametrize("panel", PANELS, ids=[f"{m}-{d}" for m, d in PANELS])
def test_fig4_panel(benchmark, scale, panel):
    model_name, dataset_name = panel
    result = run_once(
        benchmark,
        lambda: fig4.run_panel(model_name, dataset_name, scale=scale),
    )

    print()
    print(
        fig4.render(
            fig4.Fig4Result(panels=[result], bit_settings=fig4.BIT_SETTINGS)
        )
    )

    for bits in fig4.BIT_SETTINGS:
        # The searched arrangement must meet the budget exactly as the
        # paper defines it (average over quantized weights).
        assert result.cq_avg_bits[bits] <= bits + 1e-9

        # CQ >= APN in the paper; allow small-scale noise slack here and
        # record the actual margin in EXPERIMENTS.md.
        assert result.cq_accuracy[bits] >= result.apn_accuracy[bits] - 0.15, (
            f"CQ fell more than 15 points behind APN at {bits}.0/{bits}.0: "
            f"CQ={result.cq_accuracy[bits]:.3f} APN={result.apn_accuracy[bits]:.3f}"
        )

    # Both methods approach the FP model at the 4.0/4.0 setting (Fig. 4's
    # right-hand bars): CQ within 15 points of FP at small scale.
    assert result.cq_accuracy[4] >= result.fp_accuracy - 0.15
