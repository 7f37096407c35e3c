"""Straight-through estimator (STE) fake-quantization ops.

Training a quantized network needs gradients through the
non-differentiable rounding of eq. (2); the STE [20] passes the
gradient through unchanged inside the clip range and zeroes it outside,
exactly as in the paper's refining phase (Sec. III-D).
"""

from __future__ import annotations

import numpy as np

from repro.quant.uniform import UniformQuantizer, quantize_per_filter
from repro.tensor.tensor import Tensor


def ste_quantize_weights(weight: Tensor, bits_per_filter: np.ndarray) -> Tensor:
    """Fake-quantize a weight tensor per filter with an STE backward.

    Forward: per-filter uniform quantization with a layer-shared
    symmetric range. Backward: identity (the range covers every weight,
    so no clip masking is needed for weights).
    """
    quantized = quantize_per_filter(weight.data, bits_per_filter)

    def backward(grad):
        return ((weight, grad),)

    return Tensor._make(quantized, (weight,), backward, "ste_quant_w")


def ste_quantize_activations(
    x: Tensor, bits: int, lower: float, upper: float
) -> Tensor:
    """Fake-quantize activations with a clipped-STE backward.

    Forward is eqs. (1)-(3) on ``[lower, upper]``; backward passes the
    gradient only where the input lies strictly inside the clip range
    (the standard clipped straight-through estimator).
    """
    if bits < 0:
        raise ValueError(f"bit-width must be non-negative, got {bits}")
    quantizer = UniformQuantizer(lower, upper)
    quantized = quantizer(x.data, bits)
    pass_mask = (x.data >= lower) & (x.data <= upper)

    def backward(grad):
        return ((x, grad * pass_mask),)

    return Tensor._make(quantized, (x,), backward, "ste_quant_a")
