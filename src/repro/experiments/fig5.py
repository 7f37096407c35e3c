"""Figure 5: CQ vs WrapNet on ResNet-20-x1 at asymmetric bit settings.

The paper compares weight/activation settings 1.0/3.0, 1.0/7.0,
2.0/4.0 and 2.0/7.0 (WrapNet's protocol). Expected shape: CQ >= WN at
every setting, and CQ's accuracy is more stable as the activation
bit-width shrinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.analysis.render import ascii_table
from repro.baselines.wrapnet import WrapNetConfig, train_wrapnet
from repro.core.config import CQConfig
from repro.core.pipeline import ClassBasedQuantizer
from repro.experiments.fig4 import search_range_for_budget
from repro.experiments.presets import get_pretrained, get_scale

#: (weight_bits, act_bits) settings of Figure 5.
BIT_SETTINGS: Tuple[Tuple[int, int], ...] = ((1, 3), (1, 7), (2, 4), (2, 7))


@dataclass
class Fig5Result:
    fp_accuracy: float = float("nan")
    cq_accuracy: Dict[Tuple[int, int], float] = field(default_factory=dict)
    wn_accuracy: Dict[Tuple[int, int], float] = field(default_factory=dict)
    cq_avg_bits: Dict[Tuple[int, int], float] = field(default_factory=dict)
    wn_overflow: Dict[Tuple[int, int], float] = field(default_factory=dict)
    bit_settings: Sequence[Tuple[int, int]] = BIT_SETTINGS


def run(
    scale: str = "small",
    seed: int = 0,
    bit_settings: Sequence[Tuple[int, int]] = BIT_SETTINGS,
    acc_bits: int = 12,
) -> Fig5Result:
    """Run CQ and WrapNet on ResNet-20-x1 / SynthCIFAR-10 at each setting."""
    scale_cfg = get_scale(scale)
    model, dataset, fp_accuracy = get_pretrained("resnet20-x1", "synth10", scale, seed)
    result = Fig5Result(fp_accuracy=fp_accuracy, bit_settings=bit_settings)

    for weight_bits, act_bits in bit_settings:
        config = CQConfig(
            target_avg_bits=float(weight_bits),
            max_bits=search_range_for_budget(weight_bits),
            act_bits=act_bits,
            step=None,  # auto: max_score / 40
            samples_per_class=min(16, dataset.config.val_per_class),
            refine_epochs=scale_cfg.refine_epochs,
            refine_lr=scale_cfg.refine_lr,
            refine_batch_size=scale_cfg.batch_size,
            seed=seed,
        )
        cq = ClassBasedQuantizer(config).quantize(model, dataset)
        result.cq_accuracy[(weight_bits, act_bits)] = cq.accuracy_after_refine
        result.cq_avg_bits[(weight_bits, act_bits)] = cq.average_bits

        wn = train_wrapnet(
            model,
            dataset,
            WrapNetConfig(weight_bits=weight_bits, act_bits=act_bits, acc_bits=acc_bits),
            epochs=scale_cfg.wrapnet_epochs,
            lr=scale_cfg.baseline_lr,
            batch_size=scale_cfg.batch_size,
            seed=seed,
        )
        result.wn_accuracy[(weight_bits, act_bits)] = wn.accuracy
        result.wn_overflow[(weight_bits, act_bits)] = wn.overflow_rate
    return result


def render(result: Fig5Result) -> str:
    rows = []
    for setting in result.bit_settings:
        weight_bits, act_bits = setting
        rows.append(
            [
                f"{weight_bits}.0/{act_bits}.0",
                result.cq_accuracy.get(setting, float("nan")),
                result.wn_accuracy.get(setting, float("nan")),
                result.cq_avg_bits.get(setting, float("nan")),
                result.wn_overflow.get(setting, float("nan")),
            ]
        )
    table = ascii_table(
        ["setting (W/A)", "CQ", "WN", "CQ avg bits", "WN overflow"],
        rows,
        title="Figure 5 — CQ vs WrapNet, ResNet-20-x1 on SynthCIFAR-10",
    )
    return table + f"\nFP reference accuracy: {result.fp_accuracy:.4f}"
