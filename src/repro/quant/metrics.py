"""Quantization quality metrics.

Per-layer weight signal-to-quantization-noise ratio and the pruned
weight fraction, used by the report generator.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.nn.module import Module
from repro.quant.qmodules import quantized_layers


def weight_sqnr_db(model: Module) -> Dict[str, float]:
    """Per-layer signal-to-quantization-noise ratio in dB.

    ``SQNR = 10 log10(E[w^2] / E[(w - q(w))^2])``; infinite when the
    layer quantizes losslessly (e.g. everything pruned to exact zeros
    with zero weights).
    """
    result = {}
    for name, layer in quantized_layers(model).items():
        weight = layer.weight.data
        error = layer.effective_weight().data - weight
        signal = float((weight ** 2).mean())
        noise = float((error ** 2).mean())
        if noise == 0.0:
            result[name] = math.inf
        elif signal == 0.0:
            result[name] = -math.inf
        else:
            result[name] = 10.0 * math.log10(signal / noise)
    return result


def pruned_weight_fraction(model: Module) -> float:
    """Fraction of quantized-layer weights assigned 0 bits."""
    pruned = 0
    total = 0
    for layer in quantized_layers(model).values():
        per_filter = layer.weights_per_filter
        pruned += int((layer.bits == 0).sum()) * per_filter
        total += layer.num_filters * per_filter
    if total == 0:
        raise ValueError("model has no quantized layers")
    return pruned / total
