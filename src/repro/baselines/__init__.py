"""Baselines the paper compares CQ against.

* :mod:`repro.baselines.apn` — Any-Precision Networks (Yu et al.,
  AAAI 2021): shared weights, switchable per-precision batch norm,
  joint multi-precision training with self-distillation. Used in Fig. 4.
* :mod:`repro.baselines.wrapnet` — WrapNet (Ni et al., ICLR 2021):
  low-precision accumulators with wrap-around overflow, a cyclic
  activation and an overflow penalty. Used in Fig. 5.
* :mod:`repro.baselines.uniform` — plain model-level uniform
  quantization with optional KD: the simplest comparator and the
  ablation anchor.
* :mod:`repro.baselines.layerwise` — layer-level mixed precision (the
  granularity of HAQ [14]) with greedy or annealing search. Used in the
  granularity ablation.
"""

from repro.baselines.apn import (
    AnyPrecisionNet,
    SwitchableBatchNorm2d,
    train_apn,
)
from repro.baselines.layerwise import (
    LayerwiseConfig,
    search_layerwise_bits,
    train_layerwise_baseline,
)
from repro.baselines.uniform import train_uniform_baseline
from repro.baselines.wrapnet import (
    WrapLinear,
    WrapConv2d,
    WrapNetConfig,
    build_wrapnet,
    train_wrapnet,
)

__all__ = [
    "AnyPrecisionNet",
    "LayerwiseConfig",
    "search_layerwise_bits",
    "train_layerwise_baseline",
    "SwitchableBatchNorm2d",
    "WrapConv2d",
    "WrapLinear",
    "WrapNetConfig",
    "build_wrapnet",
    "train_apn",
    "train_uniform_baseline",
    "train_wrapnet",
]
