"""Accuracy-vs-bit-budget sweep: the deployment trade-off curve.

Extends the paper's three discrete budgets to a whole sweep with
:mod:`repro.experiments.budget_sweep`, the grid that ``repro sweep``
fans out over a process pool. Each budget runs the full CQ pipeline
(importance, search, refine). Prints the point table, the Pareto
frontier + knee report and the deployed-size report at the 2.0-bit
operating point.

Run:
    python examples/budget_sweep.py [--scale tiny|small]
"""

import argparse

from repro.core import CQConfig, ClassBasedQuantizer
from repro.experiments.budget_sweep import render, run
from repro.experiments.presets import get_pretrained
from repro.quant.export import export_quantized_weights


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="tiny", choices=("tiny", "small"))
    args = parser.parse_args()

    # Weights-only (act_bits=None), isolating the arrangement effect.
    result = run(
        model="vgg-small",
        dataset="synth10",
        budgets=(1.0, 1.5, 2.0, 2.5, 3.0, 4.0),
        scale=args.scale,
        max_bits=4,
        act_bits=None,
    )
    print(render(result))

    # Deployed-size report at the 2.0-bit operating point.
    model, dataset, _ = get_pretrained("vgg-small", "synth10", scale=args.scale, seed=0)
    config = CQConfig(
        target_avg_bits=2.0,
        max_bits=4,
        act_bits=None,
        samples_per_class=min(16, dataset.config.val_per_class),
        refine_epochs=0,
    )
    quantized = ClassBasedQuantizer(config).quantize(model, dataset)
    print()
    print(export_quantized_weights(quantized.model).size_report())


if __name__ == "__main__":
    main()
