"""Bit-width arrangement views (Figures 3, 6 and 7).

* Figure 3/6 plot each layer's filters sorted by importance score with
  the global thresholds overlaid — :func:`sorted_score_curves`.
* Figure 7 plots, per bit-width setting, how many scalar weights ended
  up at each bit-width — :func:`bit_width_distribution`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Mapping

import numpy as np

from repro.quant.bitmap import BitWidthMap


def sorted_score_curve(scores: np.ndarray) -> np.ndarray:
    """Filter scores sorted ascending (the x-axis of Figs. 3 and 6)."""
    return np.sort(np.asarray(scores, dtype=np.float64))


def sorted_score_curves(
    filter_scores: Mapping[str, np.ndarray]
) -> "OrderedDict[str, np.ndarray]":
    """Sorted score curve per layer."""
    return OrderedDict(
        (name, sorted_score_curve(scores)) for name, scores in filter_scores.items()
    )


def bit_width_distribution(bit_map: BitWidthMap, max_bits: int) -> Dict[int, int]:
    """Scalar-weight count per bit-width (one bar group of Figure 7)."""
    return bit_map.histogram(max_bits)


def layer_bit_summary(
    filter_scores: Mapping[str, np.ndarray],
    bit_map: BitWidthMap,
    thresholds: np.ndarray,
) -> "OrderedDict[str, Dict]":
    """Per-layer view of Figure 6: sorted scores + per-bit filter counts.

    For each layer returns the sorted curve, the thresholds (global, so
    identical in every entry — they are horizontal lines in the figure)
    and the number of filters at each bit-width.
    """
    thresholds = np.asarray(thresholds, dtype=np.float64)
    summary: "OrderedDict[str, Dict]" = OrderedDict()
    for name, scores in filter_scores.items():
        bits = bit_map[name]
        counts = {
            int(value): int(occurrences)
            for value, occurrences in zip(*np.unique(bits, return_counts=True))
        }
        summary[name] = {
            "sorted_scores": sorted_score_curve(scores),
            "thresholds": thresholds.copy(),
            "filters_per_bit": counts,
            "num_filters": int(len(scores)),
        }
    return summary
