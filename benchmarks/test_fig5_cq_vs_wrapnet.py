"""Figure 5 benchmark: CQ vs WrapNet on ResNet-20-x1.

Runs the 1.0/3.0, 1.0/7.0, 2.0/4.0 and 2.0/7.0 weight/activation
settings and prints the comparison table. Shape assertions follow the
paper: CQ is competitive at every setting and its accuracy is stable
across activation bit-widths.
"""


from benchmarks.conftest import run_once
from repro.experiments import fig5


def test_fig5_cq_vs_wrapnet(benchmark, scale):
    result = run_once(benchmark, lambda: fig5.run(scale=scale))

    print()
    print(fig5.render(result))

    for setting in fig5.BIT_SETTINGS:
        weight_bits, _act_bits = setting
        # Budget met for every setting.
        assert result.cq_avg_bits[setting] <= weight_bits + 1e-9
        # CQ >= WN in the paper; slack for the small-scale substrate.
        assert result.cq_accuracy[setting] >= result.wn_accuracy[setting] - 0.15, (
            f"CQ fell more than 15 points behind WN at {setting}: "
            f"CQ={result.cq_accuracy[setting]:.3f} "
            f"WN={result.wn_accuracy[setting]:.3f}"
        )

    # Stability across activation bit-widths at fixed weight budget
    # ("the accuracy of CQ is more stable with lower activation
    # bit-width settings"): compare 1.0/3.0 vs 1.0/7.0 and 2.0/4.0 vs 2.0/7.0.
    for low_act, high_act in (((1, 3), (1, 7)), ((2, 4), (2, 7))):
        spread = abs(result.cq_accuracy[high_act] - result.cq_accuracy[low_act])
        assert spread <= 0.25, (
            f"CQ accuracy unstable across activation widths: "
            f"{low_act}={result.cq_accuracy[low_act]:.3f} "
            f"{high_act}={result.cq_accuracy[high_act]:.3f}"
        )
