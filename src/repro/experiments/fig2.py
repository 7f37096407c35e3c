"""Figure 2: importance-score histograms of a trained VGG-small.

The paper plots, for weight layers 0-7 of a floating-point VGG-small
trained on CIFAR-10, the number of filters at each importance score
(0 .. 10 classes). ``run()`` reproduces the panel data on
SynthCIFAR-10; ``render()`` prints it as ASCII histograms.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.analysis.histograms import histogram_skewness, score_histograms
from repro.analysis.render import ascii_histogram
from repro.core.importance import ImportanceResult, ImportanceScorer
from repro.experiments.presets import get_pretrained


@dataclass
class Fig2Result:
    """Per-layer histograms of filter importance scores."""

    histograms: "OrderedDict[str, Tuple[np.ndarray, np.ndarray]]"
    skewness: "OrderedDict[str, float]"
    importance: ImportanceResult = field(repr=False, default=None)
    fp_accuracy: float = float("nan")
    num_classes: int = 10


def run(scale: str = "small", seed: int = 0, bins: int = 10) -> Fig2Result:
    """Compute Figure 2's data: train VGG-small, score all layers 0-7."""
    model, dataset, fp_accuracy = get_pretrained("vgg-small", "synth10", scale, seed)
    scorer = ImportanceScorer(model, taps=model.all_tap_modules())
    samples = min(16, dataset.config.val_per_class)
    importance = scorer.score(dataset.class_batches(samples, split="val"))
    histograms = score_histograms(importance, bins=bins)
    skewness = OrderedDict(
        (name, histogram_skewness(counts, edges))
        for name, (counts, edges) in histograms.items()
    )
    return Fig2Result(
        histograms=histograms,
        skewness=skewness,
        importance=importance,
        fp_accuracy=fp_accuracy,
        num_classes=dataset.num_classes,
    )


def render(result: Fig2Result) -> str:
    """ASCII version of the Figure 2 grid."""
    blocks = [
        "Figure 2 — filter-importance histograms, FP VGG-small on SynthCIFAR-10",
        f"(FP test accuracy {result.fp_accuracy:.3f}; scores range 0..{result.num_classes})",
    ]
    for index, (name, (counts, edges)) in enumerate(result.histograms.items()):
        blocks.append("")
        blocks.append(
            ascii_histogram(
                counts,
                edges,
                title=f"Layer-{index} ({name})  skewness={result.skewness[name]:+.2f}",
            )
        )
    return "\n".join(blocks)
