"""Importance-score histograms (Figure 2).

Figure 2 plots, for each layer of a trained VGG-small, the number of
filters at each importance-score level (0 .. number of classes). These
helpers turn an :class:`~repro.core.importance.ImportanceResult` into
exactly that data.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Tuple

import numpy as np

from repro.core.importance import ImportanceResult, neuron_scores_to_filter_scores


def score_histogram(
    scores: np.ndarray, num_classes: int, bins: int = 20
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram of filter scores over ``[0, num_classes]``.

    Returns ``(counts, edges)`` with ``bins`` equal-width bins, the same
    axes as one panel of Figure 2.
    """
    if bins <= 0:
        raise ValueError(f"bins must be positive, got {bins}")
    scores = np.asarray(scores, dtype=np.float64)
    return np.histogram(scores, bins=bins, range=(0.0, float(num_classes)))


def score_histograms(
    importance: ImportanceResult, bins: int = 20
) -> "OrderedDict[str, Tuple[np.ndarray, np.ndarray]]":
    """Per-layer filter-score histograms (the full Figure 2 grid)."""
    result: "OrderedDict[str, Tuple[np.ndarray, np.ndarray]]" = OrderedDict()
    for name, gamma in importance.neuron_scores.items():
        filter_scores = neuron_scores_to_filter_scores(gamma)
        result[name] = score_histogram(filter_scores, importance.num_classes, bins)
    return result


def histogram_skewness(counts: np.ndarray, edges: np.ndarray) -> float:
    """Sample skewness of a histogram (sign distinguishes the
    left-skewed layer-5 from the right-skewed layer-2 in Fig. 2)."""
    centers = 0.5 * (edges[:-1] + edges[1:])
    total = counts.sum()
    if total == 0:
        return 0.0
    mean = float((counts * centers).sum() / total)
    var = float((counts * (centers - mean) ** 2).sum() / total)
    if var <= 0:
        return 0.0
    third = float((counts * (centers - mean) ** 3).sum() / total)
    return third / var ** 1.5
