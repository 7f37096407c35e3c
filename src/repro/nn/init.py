"""Weight initialisers (Kaiming family) and the PyTorch-style bias init.

All initialisers take an explicit ``numpy.random.Generator`` so model
construction is fully reproducible from a single seed.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np


def _fan_in_out(shape: Tuple[int, ...]) -> Tuple[int, int]:
    """Compute (fan_in, fan_out) for linear ``(out, in)`` and conv ``(out, in, kh, kw)`` weights."""
    if len(shape) == 2:
        fan_out, fan_in = shape
        return fan_in, fan_out
    if len(shape) == 4:
        out_channels, in_channels, kh, kw = shape
        receptive = kh * kw
        return in_channels * receptive, out_channels * receptive
    raise ValueError(f"unsupported weight shape {shape}")


def kaiming_normal(
    shape: Tuple[int, ...],
    rng: np.random.Generator,
    mode: str = "fan_in",
    nonlinearity: str = "relu",
) -> np.ndarray:
    """He initialisation with normal distribution (default for conv layers)."""
    fan_in, fan_out = _fan_in_out(shape)
    fan = fan_in if mode == "fan_in" else fan_out
    gain = math.sqrt(2.0) if nonlinearity == "relu" else 1.0
    std = gain / math.sqrt(fan)
    return rng.normal(0.0, std, size=shape)


def kaiming_uniform(
    shape: Tuple[int, ...],
    rng: np.random.Generator,
    mode: str = "fan_in",
    nonlinearity: str = "relu",
) -> np.ndarray:
    """He initialisation with uniform distribution."""
    fan_in, fan_out = _fan_in_out(shape)
    fan = fan_in if mode == "fan_in" else fan_out
    gain = math.sqrt(2.0) if nonlinearity == "relu" else 1.0
    bound = gain * math.sqrt(3.0 / fan)
    return rng.uniform(-bound, bound, size=shape)


def uniform_bias(
    weight_shape: Tuple[int, ...], rng: np.random.Generator, size: Optional[int] = None
) -> np.ndarray:
    """PyTorch-style bias init: uniform in ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]``."""
    fan_in, _ = _fan_in_out(weight_shape)
    bound = 1.0 / math.sqrt(fan_in) if fan_in > 0 else 0.0
    n = size if size is not None else weight_shape[0]
    return rng.uniform(-bound, bound, size=n)
