"""Ablations of CQ's design choices (DESIGN.md §5).

1. **Filter-score reduction**: max over neurons (eq. 8) vs mean.
2. **Score criterion**: class-count score ``gamma`` (eq. 7) vs raw
   Taylor magnitude vs random ordering — isolates the value of the
   *class-based* criterion.
3. **Refinement loss**: KD (eq. 10) vs plain cross-entropy.
4. **Taylor approximation (eq. 5) vs exact ablation (eq. 4)**: the
   paper's one-backward-per-class scores versus the exact zero-out
   scores they approximate — quantifies both the accuracy agreement and
   the cost gap the approximation buys.

Each ablation holds everything else fixed (same pre-trained model, same
budget, same search and refinement recipe).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

import numpy as np

from repro.analysis.render import ascii_table
from repro.core.ablation import AblationScorer
from repro.core.config import CQConfig
from repro.core.distill import refine_quantized_model
from repro.core.importance import ImportanceResult, ImportanceScorer
from repro.core.pipeline import ClassBasedQuantizer
from repro.core.search import BitWidthSearch, make_weight_quant_evaluator
from repro.data.dataset import ArrayDataset, DataLoader
from repro.experiments.presets import get_pretrained, get_scale
from repro.nn.module import Module
from repro.train.trainer import evaluate_model


# ----------------------------------------------------------------------
# Alternative scoring strategies
# ----------------------------------------------------------------------
def filter_scores_max(importance: ImportanceResult) -> Dict[str, np.ndarray]:
    """The paper's reduction (eq. 8)."""
    return dict(importance.filter_scores())


def filter_scores_mean(importance: ImportanceResult) -> Dict[str, np.ndarray]:
    """Mean over a filter's neurons instead of max."""
    result = {}
    for name, gamma in importance.neuron_scores.items():
        result[name] = gamma.copy() if gamma.ndim == 1 else gamma.mean(axis=(1, 2))
    return result


def filter_scores_magnitude(model: Module, layer_names) -> Dict[str, np.ndarray]:
    """Weight-magnitude criterion (the classic pruning score), scaled to
    the same [0, M]-like range so the search step size remains sensible."""
    modules = dict(model.named_modules())
    result = {}
    for name in layer_names:
        weight = modules[name].weight.data
        norms = np.abs(weight.reshape(weight.shape[0], -1)).mean(axis=1)
        peak = norms.max()
        result[name] = 10.0 * norms / peak if peak > 0 else norms
    return result


def filter_scores_random(
    layer_shapes: Mapping[str, int], rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    """Random ordering control."""
    return {name: 10.0 * rng.random(count) for name, count in layer_shapes.items()}


@dataclass
class AblationResult:
    """Accuracy of each variant at the same average-bit budget."""

    accuracy: "OrderedDict[str, float]" = field(default_factory=OrderedDict)
    avg_bits: "OrderedDict[str, float]" = field(default_factory=OrderedDict)
    fp_accuracy: float = float("nan")
    budget: float = 2.0
    #: Forward passes the exact-ablation scorer (eq. 4) spent, vs the
    #: backward passes (one per class) of the Taylor scorer (eq. 5).
    exact_forward_passes: int = 0
    taylor_backward_passes: int = 0


def _quantize_with_scores(
    model: Module,
    dataset,
    filter_scores: Dict[str, np.ndarray],
    config: CQConfig,
    use_distillation: bool = True,
):
    """Search + quantize + refine for a given score assignment."""
    quantizer = ClassBasedQuantizer(config)
    modules = dict(model.named_modules())
    weights_per_filter = {
        name: modules[name].weight.size // len(scores)
        for name, scores in filter_scores.items()
    }
    count = min(config.search_batch_size, len(dataset.val_images))
    evaluator = make_weight_quant_evaluator(
        model, dataset.val_images[:count], dataset.val_labels[:count], config.max_bits
    )
    search = BitWidthSearch(filter_scores, weights_per_filter, evaluator, config).run()
    student = quantizer.build_quantized_model(model, dataset, search.bit_map)
    refine_quantized_model(
        student,
        teacher=model if use_distillation else None,
        train_dataset=ArrayDataset(dataset.train_images, dataset.train_labels),
        val_dataset=None,
        config=config,
    )
    test_loader = DataLoader(
        ArrayDataset(dataset.test_images, dataset.test_labels),
        batch_size=config.refine_batch_size,
    )
    accuracy = evaluate_model(student, test_loader).accuracy
    return accuracy, search.bit_map.average_bits()


def run(
    scale: str = "small",
    seed: int = 0,
    budget: float = 2.0,
    config: Optional[CQConfig] = None,
    include_exact_ablation: bool = True,
) -> AblationResult:
    """Run all ablation variants on VGG-small / SynthCIFAR-10.

    ``include_exact_ablation`` adds the eq.-4 exact-scoring variant; it
    costs one forward pass per (class, unit) pair, so disable it for
    quick sweeps.
    """
    scale_cfg = get_scale(scale)
    model, dataset, fp_accuracy = get_pretrained("vgg-small", "synth10", scale, seed)
    if config is None:
        config = CQConfig(
            target_avg_bits=budget,
            max_bits=4,
            act_bits=int(budget),
            step=None,  # auto: max_score / 40
            samples_per_class=min(16, dataset.config.val_per_class),
            refine_epochs=scale_cfg.refine_epochs,
            refine_lr=scale_cfg.refine_lr,
            refine_batch_size=scale_cfg.batch_size,
            seed=seed,
        )
    importance = ImportanceScorer(model, eps=config.eps).score(
        dataset.class_batches(config.samples_per_class, split="val")
    )
    layer_shapes = {
        name: len(scores) for name, scores in importance.filter_scores().items()
    }
    rng = np.random.default_rng(seed)

    variants: "OrderedDict[str, tuple]" = OrderedDict(
        [
            ("cq-max-kd", (filter_scores_max(importance), True)),
            ("cq-mean-kd", (filter_scores_mean(importance), True)),
            ("cq-max-ce", (filter_scores_max(importance), False)),
            (
                "magnitude-kd",
                (filter_scores_magnitude(model, layer_shapes), True),
            ),
            ("random-kd", (filter_scores_random(layer_shapes, rng), True)),
        ]
    )

    result = AblationResult(fp_accuracy=fp_accuracy, budget=budget)
    result.taylor_backward_passes = len(dataset.class_batches(1, split="val"))
    if include_exact_ablation:
        # Channel-granularity ablation saturates under the paper's
        # absolute eps (every conv filter moves the logit by > 1e-50); a
        # 1% relative-change criterion keeps the class-count semantics.
        exact_scorer = AblationScorer(model, relative_eps=0.01)
        exact = exact_scorer.score(
            dataset.class_batches(config.samples_per_class, split="val")
        )
        variants["exact-eq4-kd"] = (dict(exact.filter_scores()), True)
        result.exact_forward_passes = exact_scorer.forward_passes
    for name, (scores, use_kd) in variants.items():
        accuracy, avg_bits = _quantize_with_scores(
            model, dataset, scores, config, use_distillation=use_kd
        )
        result.accuracy[name] = accuracy
        result.avg_bits[name] = avg_bits
    return result


def render(result: AblationResult) -> str:
    rows = [
        [name, result.accuracy[name], result.avg_bits[name]]
        for name in result.accuracy
    ]
    table = ascii_table(
        ["variant", "accuracy", "avg bits"],
        rows,
        title=(
            "Ablations — VGG-small on SynthCIFAR-10 at "
            f"{result.budget:.1f} average weight bits"
        ),
    )
    lines = [table, f"FP reference accuracy: {result.fp_accuracy:.4f}"]
    if result.exact_forward_passes:
        lines.append(
            f"scoring cost: eq. 5 (Taylor) = {result.taylor_backward_passes} "
            f"backward passes; eq. 4 (exact) = {result.exact_forward_passes} "
            "forward passes"
        )
    return "\n".join(lines)
