"""Granularity ablation: model-level vs layer-level vs filter-level.

The paper's core architectural argument (Sec. I) is a granularity
ladder: model-level uniform quantization [10]-[13] < layer-level mixed
precision (HAQ [14]) < filter-level CQ. This experiment holds the
average weight-bit budget, the refinement recipe and the model fixed,
and varies only the granularity of the arrangement:

* ``uniform`` — every quantized filter at the same width
  (:mod:`repro.baselines.uniform`),
* ``layerwise`` — one width per layer, greedy sensitivity search
  (:mod:`repro.baselines.layerwise`),
* ``cq`` — per-filter widths from class-based importance scores
  (:mod:`repro.core.pipeline`).

Each arrangement is also costed on the :mod:`repro.hw` accelerator
model, so the table reports the accuracy *and* the hardware cost of
finer granularity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.analysis.render import ascii_table
from repro.baselines.layerwise import LayerwiseConfig, train_layerwise_baseline
from repro.baselines.uniform import train_uniform_baseline
from repro.core.config import CQConfig
from repro.core.pipeline import ClassBasedQuantizer
from repro.experiments.presets import get_pretrained, get_scale
from repro.hw.profile import profile_model
from repro.hw.report import CostSummary, cost_summary


@dataclass
class GranularityResult:
    """Per-granularity accuracy, bits and hardware cost."""

    accuracy: "OrderedDict[str, float]" = field(default_factory=OrderedDict)
    avg_bits: "OrderedDict[str, float]" = field(default_factory=OrderedDict)
    cost: "OrderedDict[str, CostSummary]" = field(default_factory=OrderedDict)
    fp_accuracy: float = float("nan")
    budget: float = 2.0


def run(
    scale: str = "small",
    seed: int = 0,
    budget: float = 2.0,
    model_name: str = "vgg-small",
    dataset_name: str = "synth10",
) -> GranularityResult:
    """Run all three granularities at the same budget."""
    scale_cfg = get_scale(scale)
    model, dataset, fp_accuracy = get_pretrained(model_name, dataset_name, scale, seed)
    act_bits = max(2, int(round(budget)))
    cq_config = CQConfig(
        target_avg_bits=budget,
        max_bits=4,
        act_bits=act_bits,
        step=None,
        samples_per_class=min(16, dataset.config.val_per_class),
        refine_epochs=scale_cfg.refine_epochs,
        refine_lr=scale_cfg.refine_lr,
        refine_batch_size=scale_cfg.batch_size,
        seed=seed,
    )
    profile = profile_model(model, dataset.image_shape)
    result = GranularityResult(fp_accuracy=fp_accuracy, budget=budget)

    # Model-level: one global width. The budget must be an integer for
    # this granularity — exactly the coarseness the paper criticises.
    uniform_bits = int(round(budget))
    uniform = train_uniform_baseline(
        model, dataset, weight_bits=uniform_bits, act_bits=act_bits, config=cq_config
    )
    from repro.quant.qmodules import extract_bit_map

    uniform_map = extract_bit_map(uniform.model)
    result.accuracy["uniform"] = uniform.accuracy_after_refine
    result.avg_bits["uniform"] = uniform_map.average_bits()
    result.cost["uniform"] = cost_summary(
        profile, uniform_map, act_bits=act_bits, label="uniform"
    )

    # Layer-level: greedy sensitivity allocation.
    layerwise = train_layerwise_baseline(
        model,
        dataset,
        LayerwiseConfig(target_avg_bits=budget, max_bits=4, act_bits=act_bits, seed=seed),
        cq_config,
    )
    result.accuracy["layerwise"] = layerwise.accuracy_after_refine
    result.avg_bits["layerwise"] = layerwise.search.average_bits
    result.cost["layerwise"] = cost_summary(
        profile, layerwise.search.bit_map, act_bits=act_bits, label="layerwise"
    )

    # Filter-level: the paper's method.
    cq = ClassBasedQuantizer(cq_config).quantize(model, dataset)
    result.accuracy["cq"] = cq.accuracy_after_refine
    result.avg_bits["cq"] = cq.average_bits
    result.cost["cq"] = cost_summary(
        profile, cq.bit_map, act_bits=act_bits, label="cq"
    )
    return result


def render(result: GranularityResult) -> str:
    rows = []
    for name in result.accuracy:
        cost = result.cost[name]
        rows.append(
            [
                name,
                result.accuracy[name],
                result.avg_bits[name],
                f"x{cost.compression:.1f}",
                cost.energy_uj,
                f"x{cost.energy_saving:.1f}",
            ]
        )
    table = ascii_table(
        ["granularity", "accuracy", "avg bits", "storage", "energy (uJ)", "saving"],
        rows,
        title=(
            "Granularity ablation — model/layer/filter level at "
            f"{result.budget:.1f} average weight bits"
        ),
    )
    return table + f"\nFP reference accuracy: {result.fp_accuracy:.4f}"
