"""Uniform quantization kernels (paper Sec. II-A, eqs. 1-3).

A value ``x`` is clipped to ``[a, b]`` (eq. 1), normalised and rounded to
``N = 2**bits`` levels (eq. 2), then rescaled back to ``[a, b]`` (eq. 3).
Weights use a symmetric range ``a = -b`` with ``b`` the maximum absolute
weight of the layer; ReLU activations use ``a = 0``.

Bit-width 0 means the value is pruned (quantized to exactly zero), which
is how CQ unifies pruning and quantization (Sec. I).
"""

from __future__ import annotations

from typing import Mapping

import numpy as np


def quantization_levels(bits: int) -> int:
    """Number of representable levels for a bit-width (``N = 2**bits``)."""
    if bits < 0:
        raise ValueError(f"bit-width must be non-negative, got {bits}")
    return 2 ** bits


def quantize_uniform(x: np.ndarray, bits: int, lower: float, upper: float) -> np.ndarray:
    """Quantize ``x`` uniformly to ``2**bits`` levels on ``[lower, upper]``.

    Implements eqs. (1)-(3). ``bits == 0`` returns zeros (pruning).
    """
    if upper < lower:
        raise ValueError(f"invalid range [{lower}, {upper}]")
    if bits == 0:
        return np.zeros_like(x)
    levels = quantization_levels(bits)
    if upper == lower:
        return np.full_like(x, lower)
    clipped = np.clip(x, lower, upper)  # eq. (1)
    normalized = np.round((levels - 1) * (clipped - lower) / (upper - lower)) / (levels - 1)  # eq. (2)
    return (upper - lower) * normalized + lower  # eq. (3)


class UniformQuantizer:
    """Stateful uniform quantizer bound to a fixed range.

    Parameters
    ----------
    lower, upper:
        Clip range (eq. 1). For weights pass ``(-max_abs, max_abs)``;
        for ReLU activations pass ``(0, max_activation)``.
    """

    def __init__(self, lower: float, upper: float):
        if upper < lower:
            raise ValueError(f"invalid range [{lower}, {upper}]")
        self.lower = float(lower)
        self.upper = float(upper)

    @classmethod
    def for_weights(cls, weights: np.ndarray) -> "UniformQuantizer":
        """Symmetric quantizer covering the layer's maximum absolute weight."""
        bound = float(np.max(np.abs(weights))) if weights.size else 0.0
        return cls(-bound, bound)

    @classmethod
    def for_activations(cls, max_value: float) -> "UniformQuantizer":
        """Unsigned quantizer for post-ReLU activations (``a = 0``)."""
        return cls(0.0, float(max_value))

    def __call__(self, x: np.ndarray, bits: int) -> np.ndarray:
        return quantize_uniform(x, bits, self.lower, self.upper)

    def grid(self, bits: int) -> np.ndarray:
        """All representable values at a bit-width (useful for tests)."""
        if bits == 0:
            return np.zeros(1)
        levels = quantization_levels(bits)
        return self.lower + (self.upper - self.lower) * np.arange(levels) / (levels - 1)

    def __repr__(self) -> str:
        return f"UniformQuantizer([{self.lower}, {self.upper}])"


def quantize_per_filter(weight: np.ndarray, bits_per_filter: np.ndarray) -> np.ndarray:
    """Quantize each output filter of ``weight`` to its own bit-width.

    ``weight`` has filters along axis 0 — ``(out, in, kh, kw)`` for conv,
    ``(out, in)`` for linear. The clip range is shared across the layer
    (eq. 1: maximum absolute value *in the layer*) while each filter gets
    its own level count, which is what makes the scheme hardware-friendly
    uniform quantization despite per-filter precision.
    """
    bits_per_filter = np.asarray(bits_per_filter, dtype=np.int64)
    if bits_per_filter.shape != (weight.shape[0],):
        raise ValueError(
            f"expected one bit-width per filter ({weight.shape[0]}), got "
            f"shape {bits_per_filter.shape}"
        )
    quantizer = UniformQuantizer.for_weights(weight)
    out = np.empty_like(weight)
    for bits in np.unique(bits_per_filter):
        mask = bits_per_filter == bits
        out[mask] = quantizer(weight[mask], int(bits))
    return out


def average_bit_width(
    layer_bits: Mapping[str, np.ndarray], layer_weight_counts: Mapping[str, int]
) -> float:
    """Weight-count-weighted mean bit-width over quantized layers.

    ``layer_bits[name]`` holds per-filter bit-widths; each filter of layer
    ``name`` owns ``layer_weight_counts[name]`` scalar weights (weights
    per filter, i.e. ``weight.size / num_filters``). This matches the
    paper's metric ``sum_i b_i / N`` over all quantized weights.
    """
    total_bits = 0.0
    total_weights = 0
    for name, bits in layer_bits.items():
        per_filter = layer_weight_counts[name]
        total_bits += float(np.sum(bits)) * per_filter
        total_weights += len(bits) * per_filter
    if total_weights == 0:
        raise ValueError("no quantized layers supplied")
    return total_bits / total_weights
