"""Quantized layer modules and float-model conversion.

:class:`QConv2d` / :class:`QLinear` extend the float layers with

* per-filter weight fake-quantization (STE) driven by a bit-width array,
* optional model-level activation fake-quantization on their input
  (the paper sets activations "directly to the desired bit-widths"),
* a :class:`~repro.quant.observer.MinMaxObserver` that learns activation
  ranges during calibration / training and freezes them for eval.

:func:`quantize_model` converts a pre-trained float model in place,
skipping the first and output layers exactly as in Sec. IV.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.quant.bitmap import BitWidthMap
from repro.quant.observer import MinMaxObserver
from repro.quant.ste import ste_quantize_activations, ste_quantize_weights
from repro.tensor.tensor import Tensor


class _QuantMixin:
    """Shared quantization state for QConv2d / QLinear."""

    #: Default activation-range percentile; see MinMaxObserver. Low-bit
    #: uniform activation grids need outlier-robust ranges to train.
    DEFAULT_ACT_PERCENTILE = 99.0

    def _init_quant(
        self,
        num_filters: int,
        max_bits: int,
        act_bits: Optional[int],
        act_percentile: Optional[float] = DEFAULT_ACT_PERCENTILE,
    ):
        self.max_bits = max_bits
        self.act_bits = act_bits
        self.act_observer = MinMaxObserver(percentile=act_percentile)
        self.weight_quant_enabled = True
        self.act_quant_enabled = act_bits is not None
        self.calibrating = False
        # Quantization state lives in buffers so checkpoints carry the
        # full bit arrangement and calibrated activation ranges.
        self.register_buffer(
            "quant_bits", np.full(num_filters, max_bits, dtype=np.float64)
        )
        self.register_buffer(
            "act_range", np.array([np.inf, -np.inf, 0.0])
        )

    @property
    def bits(self) -> np.ndarray:
        """Per-filter bit-widths (stored in the ``quant_bits`` buffer)."""
        return self.quant_bits.astype(np.int64)

    def set_bits(self, bits: np.ndarray) -> None:
        """Assign per-filter bit-widths (validated against filter count)."""
        bits = np.asarray(bits, dtype=np.int64)
        if bits.shape != self.quant_bits.shape:
            raise ValueError(
                f"expected {self.quant_bits.shape[0]} bit-widths, got shape {bits.shape}"
            )
        if (bits < 0).any() or (bits > self.max_bits).any():
            raise ValueError(
                f"bit-widths must lie in [0, {self.max_bits}]"
            )
        self._set_buffer("quant_bits", bits.astype(np.float64))

    def _sync_observer_to_buffer(self) -> None:
        self._set_buffer(
            "act_range",
            np.array(
                [
                    self.act_observer.min_value,
                    self.act_observer.max_value,
                    float(self.act_observer.num_batches),
                ]
            ),
        )

    def _sync_observer_from_buffer(self) -> None:
        """Restore observer state after ``load_state_dict`` (the buffer is
        authoritative when it records more batches than the live observer)."""
        buffered_batches = int(self.act_range[2])
        if buffered_batches > self.act_observer.num_batches:
            self.act_observer.min_value = float(self.act_range[0])
            self.act_observer.max_value = float(self.act_range[1])
            self.act_observer.num_batches = buffered_batches

    def effective_weight(self) -> Tensor:
        if not self.weight_quant_enabled:
            return self.weight
        return ste_quantize_weights(self.weight, self.bits)

    def _maybe_quantize_input(self, x: Tensor) -> Tensor:
        if not self.act_quant_enabled or self.act_bits is None:
            return x
        self._sync_observer_from_buffer()
        if self.training or self.calibrating or not self.act_observer.initialized:
            self.act_observer.observe(x.data)
            self._sync_observer_to_buffer()
        lower, upper = self.act_observer.range_for_relu()
        if upper <= lower:
            return x
        return ste_quantize_activations(x, self.act_bits, lower, upper)

    @property
    def weights_per_filter(self) -> int:
        return int(self.weight.size // self.weight.shape[0])

    @property
    def num_filters(self) -> int:
        return int(self.weight.shape[0])


class QConv2d(_QuantMixin, Conv2d):
    """Conv2d with per-filter weight quantization and input activation quantization."""

    def __init__(
        self,
        *args,
        max_bits: int = 4,
        act_bits: Optional[int] = None,
        act_percentile: Optional[float] = _QuantMixin.DEFAULT_ACT_PERCENTILE,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._init_quant(self.out_channels, max_bits, act_bits, act_percentile)

    @classmethod
    def from_float(
        cls, conv: Conv2d, max_bits: int = 4, act_bits: Optional[int] = None
    ) -> "QConv2d":
        module = cls(
            conv.in_channels,
            conv.out_channels,
            conv.kernel_size,
            stride=conv.stride,
            padding=conv.padding,
            bias=conv.bias is not None,
            max_bits=max_bits,
            act_bits=act_bits,
        )
        module.weight.data[...] = conv.weight.data
        if conv.bias is not None:
            module.bias.data[...] = conv.bias.data
        return module

    def forward(self, x: Tensor) -> Tensor:
        x = self._maybe_quantize_input(x)
        return super().forward(x)

    def __repr__(self) -> str:
        return (
            f"QConv2d(in={self.in_channels}, out={self.out_channels}, "
            f"k={self.kernel_size}, avg_bits={self.bits.mean():.2f}, "
            f"act_bits={self.act_bits})"
        )


class QLinear(_QuantMixin, Linear):
    """Linear with per-neuron weight quantization and input activation quantization."""

    def __init__(
        self,
        *args,
        max_bits: int = 4,
        act_bits: Optional[int] = None,
        act_percentile: Optional[float] = _QuantMixin.DEFAULT_ACT_PERCENTILE,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self._init_quant(self.out_features, max_bits, act_bits, act_percentile)

    @classmethod
    def from_float(
        cls, fc: Linear, max_bits: int = 4, act_bits: Optional[int] = None
    ) -> "QLinear":
        module = cls(
            fc.in_features,
            fc.out_features,
            bias=fc.bias is not None,
            max_bits=max_bits,
            act_bits=act_bits,
        )
        module.weight.data[...] = fc.weight.data
        if fc.bias is not None:
            module.bias.data[...] = fc.bias.data
        return module

    def forward(self, x: Tensor) -> Tensor:
        x = self._maybe_quantize_input(x)
        return super().forward(x)

    def __repr__(self) -> str:
        return (
            f"QLinear(in={self.in_features}, out={self.out_features}, "
            f"avg_bits={self.bits.mean():.2f}, act_bits={self.act_bits})"
        )


# ----------------------------------------------------------------------
# Model conversion
# ----------------------------------------------------------------------
def weight_layer_names(model: Module) -> List[str]:
    """Names of all Conv2d/Linear layers in registration (forward) order."""
    return [
        name
        for name, module in model.named_modules()
        if isinstance(module, (Conv2d, Linear)) and name
    ]


def quantizable_layer_names(model: Module) -> List[str]:
    """Layers CQ quantizes: all weight layers except the first and the output.

    A model may override the policy by defining ``quantization_skip``
    (an iterable of layer names to exclude).
    """
    names = weight_layer_names(model)
    if len(names) < 3:
        raise ValueError(
            "model needs at least three weight layers to leave the first "
            "and last unquantized"
        )
    skip = set(getattr(model, "quantization_skip", (names[0], names[-1])))
    return [name for name in names if name not in skip]


def _get_parent(model: Module, path: str) -> Tuple[Module, str]:
    parts = path.split(".")
    module: Module = model
    for part in parts[:-1]:
        module = module._modules[part]
    return module, parts[-1]


def quantize_model(
    model: Module,
    max_bits: int = 4,
    act_bits: Optional[int] = None,
    bit_map: Optional[BitWidthMap] = None,
) -> Module:
    """Convert a float model to a fake-quantized model **in place**.

    Every quantizable Conv2d/Linear (see :func:`quantizable_layer_names`)
    is replaced by its Q counterpart with weights copied. If ``bit_map``
    is given, per-filter bit-widths are applied immediately; otherwise all
    filters start at ``max_bits``.

    Returns the same model object for chaining.
    """
    for name in quantizable_layer_names(model):
        parent, attr = _get_parent(model, name)
        layer = parent._modules[attr]
        if isinstance(layer, QConv2d) or isinstance(layer, QLinear):
            continue
        if isinstance(layer, Conv2d):
            replacement: Module = QConv2d.from_float(layer, max_bits=max_bits, act_bits=act_bits)
        elif isinstance(layer, Linear):
            replacement = QLinear.from_float(layer, max_bits=max_bits, act_bits=act_bits)
        else:  # pragma: no cover - quantizable_layer_names filters types
            continue
        setattr(parent, attr, replacement)
    if bit_map is not None:
        apply_bit_map(model, bit_map)
    return model


def quantized_layers(model: Module) -> "OrderedDict[str, Module]":
    """All QConv2d/QLinear layers of a model, keyed by dotted name."""
    layers: "OrderedDict[str, Module]" = OrderedDict()
    for name, module in model.named_modules():
        if isinstance(module, (QConv2d, QLinear)):
            layers[name] = module
    return layers


def apply_bit_map(model: Module, bit_map: BitWidthMap) -> None:
    """Push a :class:`BitWidthMap`'s assignments into a quantized model."""
    layers = quantized_layers(model)
    for name in bit_map:
        if name not in layers:
            raise KeyError(f"bit map refers to unknown quantized layer {name!r}")
        layers[name].set_bits(bit_map[name])


def extract_bit_map(model: Module) -> BitWidthMap:
    """Read the current per-filter bit-widths out of a quantized model."""
    layers = quantized_layers(model)
    if not layers:
        raise ValueError("model has no quantized layers")
    return BitWidthMap(
        {name: layer.bits for name, layer in layers.items()},
        {name: layer.weights_per_filter for name, layer in layers.items()},
    )


def calibrate_activations(model: Module, inputs) -> None:
    """Run calibration forwards so activation observers learn their ranges."""
    from repro.tensor.tensor import no_grad

    layers = quantized_layers(model)
    for layer in layers.values():
        layer.calibrating = True
    was_training = model.training
    model.eval()
    with no_grad():
        for batch in inputs:
            model(batch if isinstance(batch, Tensor) else Tensor(batch))
    for layer in layers.values():
        layer.calibrating = False
    model.train(was_training)
