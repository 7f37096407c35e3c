"""Figure 6: the bit-width arrangement of VGG-small at 2.0/2.0.

The paper shows each quantized layer's filters sorted by importance
score with the four global thresholds overlaid, and discusses the
resulting structure (FC layers heavily pruned; the last hidden layer
keeps every filter at >= 2 bits in the paper's run). ``run()``
reproduces the arrangement; ``render()`` prints per-layer filter
counts per bit-width plus the thresholds.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.analysis.arrangement import layer_bit_summary
from repro.analysis.render import ascii_table
from repro.core.config import CQConfig
from repro.core.importance import ImportanceScorer
from repro.core.search import BitWidthSearch, SearchResult, make_weight_quant_evaluator
from repro.experiments.presets import get_pretrained


@dataclass
class Fig6Result:
    summary: "OrderedDict[str, Dict]" = field(repr=False, default_factory=OrderedDict)
    thresholds: np.ndarray = None
    avg_bits: float = float("nan")
    search: SearchResult = field(repr=False, default=None)
    config: Optional[CQConfig] = None


def run(scale: str = "small", seed: int = 0, config: Optional[CQConfig] = None) -> Fig6Result:
    """Compute the 2.0/2.0 arrangement of VGG-small on SynthCIFAR-10."""
    if config is None:
        config = CQConfig(target_avg_bits=2.0, max_bits=4, step=None, act_bits=None)
    model, dataset, _ = get_pretrained("vgg-small", "synth10", scale, seed)
    samples = min(config.samples_per_class, dataset.config.val_per_class)
    importance = ImportanceScorer(model, eps=config.eps).score(
        dataset.class_batches(samples, split="val")
    )
    filter_scores = importance.filter_scores()
    count = min(config.search_batch_size, len(dataset.val_images))
    evaluator = make_weight_quant_evaluator(
        model, dataset.val_images[:count], dataset.val_labels[:count], config.max_bits
    )
    modules = dict(model.named_modules())
    weights_per_filter = {
        name: modules[name].weight.size // len(scores)
        for name, scores in filter_scores.items()
    }
    search = BitWidthSearch(filter_scores, weights_per_filter, evaluator, config).run()
    summary = layer_bit_summary(filter_scores, search.bit_map, search.thresholds)
    return Fig6Result(
        summary=summary,
        thresholds=search.thresholds,
        avg_bits=search.average_bits,
        search=search,
        config=config,
    )


def render(result: Fig6Result) -> str:
    max_bits = result.config.max_bits
    headers = ["layer", "filters"] + [f"{b}-bit" for b in range(max_bits + 1)] + [
        "min score",
        "max score",
    ]
    rows = []
    for index, (name, info) in enumerate(result.summary.items(), start=1):
        counts = info["filters_per_bit"]
        sorted_scores = info["sorted_scores"]
        rows.append(
            [f"layer-{index} ({name})", info["num_filters"]]
            + [counts.get(b, 0) for b in range(max_bits + 1)]
            + [float(sorted_scores[0]), float(sorted_scores[-1])]
        )
    table = ascii_table(
        headers,
        rows,
        title="Figure 6 — VGG-small 2.0/2.0 bit-width arrangement (filters per bit)",
    )
    thresholds = ", ".join(
        f"p_{k + 1}={p:.2f}" for k, p in enumerate(result.thresholds)
    )
    return table + f"\nthresholds: {thresholds} | average bits {result.avg_bits:.3f}"
