"""Shape and MAC profiling of models via forward hooks.

The paper motivates quantization with the storage and
multiply-and-accumulate (MAC) cost of DNNs (Sec. I). This module
measures both for any :class:`~repro.nn.module.Module`: a single traced
forward pass records, per Conv2d/Linear layer, the output shape, the MAC
count and the parameter count. The resulting :class:`ModelProfile` is the
substrate for the energy and latency models in :mod:`repro.hw.energy`
and :mod:`repro.hw.latency`.

MAC counting conventions (per *single* input sample):

* ``Conv2d``: ``H_out * W_out * out_channels * in_channels * k * k``
* ``Linear``: ``out_features * in_features``

Bias additions, batch-norm and activations are ignored — they are linear
in the output size and negligible next to the MAC volume, matching how
the mixed-precision literature accounts compute.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad


@dataclass(frozen=True)
class LayerProfile:
    """Static compute/storage facts about one weight layer.

    All counts are per single input sample (batch dimension removed).
    """

    name: str
    kind: str  #: ``"conv"`` or ``"linear"``
    macs: int  #: multiply-accumulate operations for one sample
    params: int  #: scalar weights (excluding bias)
    output_shape: Tuple[int, ...]  #: per-sample output shape
    num_filters: int  #: output channels (conv) or output neurons (linear)
    weights_per_filter: int  #: scalar weights owned by each filter
    macs_per_filter: int  #: MACs attributable to one filter
    calls: int = 1  #: times the layer ran during the traced forward

    @property
    def output_elements(self) -> int:
        """Activations this layer produces for one sample."""
        return int(np.prod(self.output_shape))


class ModelProfile:
    """Per-layer :class:`LayerProfile` index for one traced model.

    Iteration order follows forward execution order.
    """

    def __init__(self, layers: "OrderedDict[str, LayerProfile]", input_shape: Tuple[int, ...]):
        self._layers = layers
        self.input_shape = tuple(input_shape)

    def __getitem__(self, name: str) -> LayerProfile:
        return self._layers[name]

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def __iter__(self) -> Iterator[str]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    def layers(self) -> Tuple[str, ...]:
        return tuple(self._layers)

    def profiles(self) -> Tuple[LayerProfile, ...]:
        return tuple(self._layers.values())

    @property
    def total_macs(self) -> int:
        """MACs per sample over all profiled layers."""
        return sum(p.macs for p in self._layers.values())

    @property
    def total_params(self) -> int:
        """Scalar weights over all profiled layers (biases excluded)."""
        return sum(p.params for p in self._layers.values())

    def subset(self, names: Sequence[str]) -> "ModelProfile":
        """Profile restricted to ``names`` (e.g. the quantizable layers)."""
        missing = [n for n in names if n not in self._layers]
        if missing:
            raise KeyError(f"layers not in profile: {missing}")
        kept = OrderedDict((n, self._layers[n]) for n in self._layers if n in set(names))
        return ModelProfile(kept, self.input_shape)

    def __repr__(self) -> str:
        return (
            f"ModelProfile(layers={len(self)}, macs={self.total_macs}, "
            f"params={self.total_params})"
        )


def _conv_macs(layer: Conv2d, output_shape: Tuple[int, ...]) -> Tuple[int, int]:
    """(total MACs, MACs per filter) for one sample of a conv layer."""
    spatial = int(np.prod(output_shape[1:]))  # H_out * W_out
    per_filter = spatial * layer.in_channels * layer.kernel_size * layer.kernel_size
    return per_filter * layer.out_channels, per_filter


def _linear_macs(layer: Linear) -> Tuple[int, int]:
    return layer.out_features * layer.in_features, layer.in_features


def profile_model(
    model: Module,
    input_shape: Sequence[int],
    rng: Optional[np.random.Generator] = None,
) -> ModelProfile:
    """Trace one forward pass and profile every Conv2d/Linear layer.

    Parameters
    ----------
    input_shape:
        Per-sample input shape, e.g. ``(3, 16, 16)``. A batch axis of 1
        is prepended for the trace.
    rng:
        Source for the dummy input; defaults to a fixed-seed generator so
        profiling is deterministic.

    Layers that run multiple times in one forward (weight sharing)
    accumulate their MACs and record ``calls > 1``.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    records: "OrderedDict[str, dict]" = OrderedDict()
    handles = []

    def make_hook(name: str, layer: Module):
        def hook(module: Module, output: Tensor) -> None:
            per_sample_shape = tuple(int(d) for d in output.shape[1:])
            if isinstance(module, Conv2d):
                macs, per_filter = _conv_macs(module, per_sample_shape)
                kind = "conv"
                num_filters = module.out_channels
            else:
                macs, per_filter = _linear_macs(module)
                kind = "linear"
                num_filters = module.out_features
            if name in records:
                entry = records[name]
                entry["macs"] += macs
                entry["macs_per_filter"] += per_filter
                entry["calls"] += 1
            else:
                records[name] = {
                    "kind": kind,
                    "macs": macs,
                    "macs_per_filter": per_filter,
                    "output_shape": per_sample_shape,
                    "num_filters": num_filters,
                    "params": int(module.weight.size),
                    "weights_per_filter": int(module.weight.size // num_filters),
                    "calls": 1,
                }

        return hook

    for name, module in model.named_modules():
        if isinstance(module, (Conv2d, Linear)) and name:
            handles.append(module.register_forward_hook(make_hook(name, module)))

    was_training = model.training
    model.eval()
    try:
        dummy = Tensor(rng.standard_normal((1, *input_shape)))
        with no_grad():
            model(dummy)
    finally:
        for handle in handles:
            handle.remove()
        model.train(was_training)

    if not records:
        raise ValueError("model has no Conv2d/Linear layers to profile")

    layers: "OrderedDict[str, LayerProfile]" = OrderedDict()
    for name, entry in records.items():
        layers[name] = LayerProfile(
            name=name,
            kind=entry["kind"],
            macs=int(entry["macs"]),
            params=entry["params"],
            output_shape=entry["output_shape"],
            num_filters=entry["num_filters"],
            weights_per_filter=entry["weights_per_filter"],
            macs_per_filter=int(entry["macs_per_filter"]),
            calls=entry["calls"],
        )
    return ModelProfile(layers, tuple(input_shape))
