"""Histogram-based activation observer with MSE-optimal clipping.

An alternative to :class:`~repro.quant.observer.MinMaxObserver`: it
accumulates a histogram of observed activations and, when asked for a
range, picks the clip threshold that minimises the expected squared
quantization error at a given bit-width — the textbook calibration
trade-off between clipping error (range too small) and rounding error
(range too large).

Used by the calibration ablation; the pipeline default remains the
percentile min/max observer.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


class HistogramObserver:
    """Accumulates an activation histogram for MSE-optimal range selection.

    Parameters
    ----------
    num_bins:
        Histogram resolution. The histogram covers ``[0, running_max]``
    candidates:
        Number of candidate clip thresholds evaluated in
        :meth:`optimal_range`.
    """

    def __init__(self, num_bins: int = 256, candidates: int = 32):
        if num_bins < 8:
            raise ValueError(f"num_bins must be >= 8, got {num_bins}")
        if candidates < 2:
            raise ValueError(f"candidates must be >= 2, got {candidates}")
        self.num_bins = num_bins
        self.num_candidates = candidates
        self.counts = np.zeros(num_bins, dtype=np.float64)
        self.range_max = 0.0
        self.num_batches = 0

    @property
    def initialized(self) -> bool:
        return self.num_batches > 0 and self.range_max > 0

    def observe(self, values: np.ndarray) -> None:
        """Fold a batch of (post-ReLU) activations into the histogram.

        If the batch maximum exceeds the current histogram range, the
        histogram is rebinned to the new range first (counts are
        redistributed proportionally, which is exact for our piecewise-
        constant density model).
        """
        values = np.asarray(values).reshape(-1)
        values = values[values > 0]
        if values.size == 0:
            self.num_batches += 1
            return
        batch_max = float(values.max())
        if batch_max > self.range_max:
            self._rebin(batch_max)
        bins = np.minimum(
            (values / self.range_max * self.num_bins).astype(np.int64),
            self.num_bins - 1,
        )
        np.add.at(self.counts, bins, 1.0)
        self.num_batches += 1

    def _rebin(self, new_max: float) -> None:
        if self.range_max == 0.0:
            self.range_max = new_max
            return
        old_edges = np.linspace(0.0, self.range_max, self.num_bins + 1)
        centers = 0.5 * (old_edges[:-1] + old_edges[1:])
        new_counts = np.zeros(self.num_bins)
        new_bins = np.minimum(
            (centers / new_max * self.num_bins).astype(np.int64), self.num_bins - 1
        )
        np.add.at(new_counts, new_bins, self.counts)
        self.counts = new_counts
        self.range_max = new_max

    # ------------------------------------------------------------------
    def _expected_mse(self, clip: float, bits: int) -> float:
        """Expected squared error when quantizing to ``[0, clip]``."""
        edges = np.linspace(0.0, self.range_max, self.num_bins + 1)
        centers = 0.5 * (edges[:-1] + edges[1:])
        total = self.counts.sum()
        if total == 0:
            return 0.0
        probabilities = self.counts / total
        levels = 2 ** bits
        step = clip / (levels - 1) if levels > 1 else clip
        inside = centers <= clip
        # Rounding error inside the range: uniform quantization noise.
        rounding = (step ** 2 / 12.0) * probabilities[inside].sum()
        # Clipping error outside the range.
        clipping = (probabilities[~inside] * (centers[~inside] - clip) ** 2).sum()
        return float(rounding + clipping)

    def optimal_range(self, bits: int) -> Tuple[float, float]:
        """MSE-optimal ``(0, clip)`` range for the given bit-width."""
        if not self.initialized:
            raise RuntimeError(
                "observer has seen no data; run a calibration pass first"
            )
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        candidates = np.linspace(
            self.range_max / self.num_candidates, self.range_max, self.num_candidates
        )
        errors = [self._expected_mse(float(c), bits) for c in candidates]
        best = candidates[int(np.argmin(errors))]
        return 0.0, float(best)

    def reset(self) -> None:
        self.counts[:] = 0.0
        self.range_max = 0.0
        self.num_batches = 0

    def __repr__(self) -> str:
        if not self.initialized:
            return "HistogramObserver(uninitialized)"
        return (
            f"HistogramObserver(bins={self.num_bins}, "
            f"range=[0, {self.range_max:.4g}])"
        )
