"""Figure 3: snapshots of the threshold-search process.

The paper shows VGG-small on CIFAR-10 with target 2.0 average bits,
search range {0..4}, ``T1 = 50%`` and ``R = 0.8``: panel (a) is the
moment ``p_1`` stops, panel (b) the moment ``p_2`` stops, and so on.
``run()`` executes the same search on SynthCIFAR-10 and extracts the
per-threshold stopping snapshots from the recorded trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.arrangement import sorted_score_curves
from repro.analysis.render import ascii_table
from repro.core.config import CQConfig
from repro.core.importance import ImportanceScorer
from repro.core.search import BitWidthSearch, SearchResult, make_weight_quant_evaluator
from repro.experiments.presets import get_pretrained


@dataclass
class ThresholdSnapshot:
    """State of the search at the moment a threshold was determined."""

    k: int
    threshold: float
    accuracy: float
    avg_bits: float
    target_accuracy: float
    phase: str


@dataclass
class Fig3Result:
    search: SearchResult = field(repr=False, default=None)
    snapshots: List[ThresholdSnapshot] = field(default_factory=list)
    sorted_scores: Dict[str, np.ndarray] = field(repr=False, default_factory=dict)
    config: Optional[CQConfig] = None


def run(scale: str = "small", seed: int = 0, config: Optional[CQConfig] = None) -> Fig3Result:
    """Run the Figure-3 search (target 2.0 bits, T1=50%, R=0.8)."""
    if config is None:
        config = CQConfig(
            target_avg_bits=2.0,
            max_bits=4,
            t1=0.5,
            decay=0.8,
            step=None,  # auto: max_score / 40
            act_bits=None,
        )
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
    weights_per_filter = {
        name: dict(model.named_modules())[name].weight.size // len(scores)
        for name, scores in filter_scores.items()
    }
    search = BitWidthSearch(filter_scores, weights_per_filter, evaluator, config).run()

    snapshots = []
    for k in range(1, config.max_bits + 1):
        steps = [step for step in search.steps if step.k == k]
        if steps:
            last = steps[-1]
            snapshots.append(
                ThresholdSnapshot(
                    k=k,
                    threshold=last.threshold,
                    accuracy=last.accuracy,
                    avg_bits=last.avg_bits,
                    target_accuracy=last.target_accuracy,
                    phase=last.phase,
                )
            )
    return Fig3Result(
        search=search,
        snapshots=snapshots,
        sorted_scores=dict(sorted_score_curves(filter_scores)),
        config=config,
    )


def render(result: Fig3Result) -> str:
    """Figure 3 as a stopping-point table plus the final thresholds."""
    rows = [
        [
            f"p_{snap.k}",
            snap.phase,
            snap.threshold,
            snap.accuracy,
            snap.target_accuracy,
            snap.avg_bits,
        ]
        for snap in result.snapshots
    ]
    table = ascii_table(
        ["threshold", "phase", "position", "accuracy", "target T_k", "avg bits"],
        rows,
        title=(
            "Figure 3 — threshold-search snapshots "
            f"(target {result.config.target_avg_bits} bits, "
            f"T1={result.config.t1:.0%}, R={result.config.decay})"
        ),
    )
    final = (
        "final thresholds: "
        + ", ".join(f"p_{i + 1}={p:.2f}" for i, p in enumerate(result.search.thresholds))
        + f" | final avg bits {result.search.average_bits:.3f}"
        + f" | evaluations {result.search.evaluations}"
    )
    return table + "\n" + final
