"""Per-class accuracy analysis of quantized models.

CQ's premise is that different neurons serve different classes, so the
natural post-quantization question is *which classes paid* for the bit
reduction. This module measures per-class accuracy before and after
quantization and relates the drop to the importance mass the searched
arrangement kept for each class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.render import ascii_table
from repro.core.importance import ImportanceResult
from repro.nn.module import Module
from repro.quant.bitmap import BitWidthMap
from repro.tensor.tensor import Tensor, no_grad


def per_class_accuracy(
    model: Module, images: np.ndarray, labels: np.ndarray, num_classes: int,
    batch_size: int = 200,
) -> np.ndarray:
    """Accuracy per class over an evaluation set.

    Classes with no samples report ``nan`` (distinguishable from 0%).
    """
    labels = np.asarray(labels)
    if len(images) != len(labels):
        raise ValueError(
            f"images and labels disagree: {len(images)} vs {len(labels)}"
        )
    correct = np.zeros(num_classes)
    totals = np.zeros(num_classes)
    was_training = model.training
    model.eval()
    with no_grad():
        for start in range(0, len(images), batch_size):
            batch = images[start : start + batch_size]
            batch_labels = labels[start : start + batch_size]
            predictions = model(Tensor(batch)).data.argmax(axis=1)
            for cls in range(num_classes):
                mask = batch_labels == cls
                totals[cls] += mask.sum()
                correct[cls] += (predictions[mask] == cls).sum()
    model.train(was_training)
    with np.errstate(invalid="ignore"):
        return np.where(totals > 0, correct / np.maximum(totals, 1), np.nan)


@dataclass
class ClasswiseReport:
    """Per-class accuracy of the FP teacher and the quantized student."""

    fp_accuracy: np.ndarray
    quantized_accuracy: np.ndarray
    #: Fraction of each class's importance mass (sum of beta over all
    #: neurons) that survived at non-zero bits; nan when no importance
    #: result was supplied.
    kept_importance: Optional[np.ndarray] = None

    @property
    def num_classes(self) -> int:
        return len(self.fp_accuracy)

    @property
    def drop(self) -> np.ndarray:
        """Per-class accuracy drop (positive = the class got worse)."""
        return self.fp_accuracy - self.quantized_accuracy

    def worst_class(self) -> int:
        """Class index with the largest accuracy drop."""
        return int(np.nanargmax(self.drop))

    def spread(self) -> float:
        """Range of per-class drops — how unevenly classes paid."""
        finite = self.drop[np.isfinite(self.drop)]
        return float(finite.max() - finite.min()) if finite.size else 0.0


def kept_importance_per_class(
    importance: ImportanceResult, bit_map: BitWidthMap
) -> np.ndarray:
    """Fraction of each class's importance mass kept at non-zero bits.

    For every layer in the arrangement, each class's beta mass over that
    layer's filters is split into kept (bits > 0) and pruned (0 bits);
    the result aggregates over layers. A class whose critical filters
    were pruned scores low — the quantity the per-class accuracy drop
    should track.
    """
    kept = np.zeros(importance.num_classes)
    total = np.zeros(importance.num_classes)
    for name, beta in importance.beta.items():
        if name not in bit_map:
            continue
        bits = bit_map[name]
        # beta has shape (M, *neuron_shape); reduce neurons to filters
        # with max, matching eq. (8)'s reduction.
        if beta.ndim == 2:
            filter_beta = beta
        elif beta.ndim == 4:
            filter_beta = beta.max(axis=(2, 3))
        else:
            raise ValueError(f"unsupported beta shape {beta.shape} for {name!r}")
        if filter_beta.shape[1] != len(bits):
            raise ValueError(
                f"beta/filter count mismatch for {name!r}: "
                f"{filter_beta.shape[1]} vs {len(bits)}"
            )
        survived = bits > 0
        kept += filter_beta[:, survived].sum(axis=1)
        total += filter_beta.sum(axis=1)
    with np.errstate(invalid="ignore"):
        return np.where(total > 0, kept / np.maximum(total, 1e-300), np.nan)


def classwise_report(
    fp_model: Module,
    quantized_model: Module,
    images: np.ndarray,
    labels: np.ndarray,
    num_classes: int,
    importance: Optional[ImportanceResult] = None,
    bit_map: Optional[BitWidthMap] = None,
) -> ClasswiseReport:
    """Compare per-class accuracy of teacher and student.

    Pass ``importance`` and ``bit_map`` to also relate each class's drop
    to the importance mass the arrangement kept for it.
    """
    report = ClasswiseReport(
        fp_accuracy=per_class_accuracy(fp_model, images, labels, num_classes),
        quantized_accuracy=per_class_accuracy(
            quantized_model, images, labels, num_classes
        ),
    )
    if importance is not None and bit_map is not None:
        report.kept_importance = kept_importance_per_class(importance, bit_map)
    return report


def render_classwise(report: ClasswiseReport, title: str = "per-class accuracy:") -> str:
    """ASCII table of the per-class comparison."""
    headers = ["class", "FP", "quantized", "drop"]
    if report.kept_importance is not None:
        headers.append("kept importance")
    rows = []
    for cls in range(report.num_classes):
        row = [
            cls,
            float(report.fp_accuracy[cls]),
            float(report.quantized_accuracy[cls]),
            float(report.drop[cls]),
        ]
        if report.kept_importance is not None:
            row.append(float(report.kept_importance[cls]))
        rows.append(row)
    table = ascii_table(headers, rows, title=title)
    return (
        table
        + f"\nworst class: {report.worst_class()} "
        + f"(drop spread {report.spread():.4f})"
    )
