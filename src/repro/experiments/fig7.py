"""Figure 7: weight counts per bit-width for every network and setting.

The paper shows, for each of the four model/dataset panels and each
bit setting (2.0/2.0, 3.0/3.0, 4.0/4.0), how many scalar weights ended
up at each bit-width 0..6. Expected shape: lower budgets shift mass to
lower bits; the FC-heavy VGG-small has the largest 0-bit (pruned)
share, while the ResNets keep more filters at 1-2 bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro.analysis.render import ascii_table
from repro.core.config import CQConfig
from repro.core.importance import ImportanceScorer
from repro.core.search import BitWidthSearch, make_weight_quant_evaluator
from repro.experiments.fig4 import BIT_SETTINGS, PANELS, search_range_for_budget
from repro.experiments.presets import get_pretrained


@dataclass
class Fig7Result:
    """distributions[(model, dataset)][bit_setting] -> {bits: weight count}."""

    distributions: Dict[Tuple[str, str], Dict[int, Dict[int, int]]] = field(
        default_factory=dict
    )
    avg_bits: Dict[Tuple[str, str], Dict[int, float]] = field(default_factory=dict)
    bit_settings: Sequence[int] = BIT_SETTINGS


def run(
    scale: str = "small",
    seed: int = 0,
    panels: Sequence[Tuple[str, str]] = PANELS,
    bit_settings: Sequence[int] = BIT_SETTINGS,
) -> Fig7Result:
    """Search the arrangement for every panel and setting (no refining --
    Figure 7 only needs the bit-width assignment)."""
    result = Fig7Result(bit_settings=bit_settings)
    for model_name, dataset_name in panels:
        model, dataset, _ = get_pretrained(model_name, dataset_name, scale, seed)
        samples = min(16, dataset.config.val_per_class)
        importance = ImportanceScorer(model).score(
            dataset.class_batches(samples, split="val")
        )
        filter_scores = importance.filter_scores()
        modules = dict(model.named_modules())
        weights_per_filter = {
            name: modules[name].weight.size // len(scores)
            for name, scores in filter_scores.items()
        }
        key = (model_name, dataset_name)
        result.distributions[key] = {}
        result.avg_bits[key] = {}
        for bits in bit_settings:
            config = CQConfig(
                target_avg_bits=float(bits),
                max_bits=search_range_for_budget(bits),
                step=None,  # auto: max_score / 40
                act_bits=None,
                seed=seed,
            )
            count = min(config.search_batch_size, len(dataset.val_images))
            evaluator = make_weight_quant_evaluator(
                model,
                dataset.val_images[:count],
                dataset.val_labels[:count],
                config.max_bits,
            )
            search = BitWidthSearch(
                filter_scores, weights_per_filter, evaluator, config
            ).run()
            result.distributions[key][bits] = search.bit_map.histogram(
                search_range_for_budget(max(bit_settings))
            )
            result.avg_bits[key][bits] = search.average_bits
    return result


def render(result: Fig7Result) -> str:
    blocks = ["Figure 7 — weight counts per bit-width (rows: settings)"]
    max_axis = search_range_for_budget(max(result.bit_settings))
    headers = ["setting"] + [f"{b}-bit" for b in range(max_axis + 1)] + ["avg bits"]
    for key, per_setting in result.distributions.items():
        rows = []
        for bits in result.bit_settings:
            distribution = per_setting[bits]
            rows.append(
                [f"{bits}.0/{bits}.0"]
                + [distribution.get(b, 0) for b in range(max_axis + 1)]
                + [result.avg_bits[key][bits]]
            )
        blocks.append("")
        blocks.append(ascii_table(headers, rows, title=f"{key[0]} on {key[1]}"))
    return "\n".join(blocks)
