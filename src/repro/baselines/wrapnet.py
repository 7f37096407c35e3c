"""WrapNet baseline [11] (Ni et al., ICLR 2021).

WrapNet runs quantized inference with **ultra-low-precision
accumulators**: partial sums of the integer dot products wrap around
(modular arithmetic) instead of saturating. Training is made robust to
the overflow with two mechanisms re-implemented here:

1. a **cyclic activation** that maps the wrapped accumulator smoothly
   (gradient exists across the wrap point, zero at the discontinuity);
2. an **overflow penalty** added to the loss, discouraging pre-wrap
   magnitudes beyond the accumulator range.

The original evaluation adopted in the paper (Fig. 5) reports ResNet-20
accuracies at weight/activation settings 1/3, 1/7, 2/4 and 2/7 bits;
:func:`train_wrapnet` reproduces that protocol on our substrate.

Integer simulation: weights and activations are fake-quantized to
``2**bits`` uniform levels, the conv/linear product is expressed in
integer units of ``(scale_w * scale_a)``, and the integer result is
wrapped into the signed ``acc_bits`` range before rescaling back to
float. Gradients use the straight-through estimator, with the cyclic
activation shaping the gradient near overflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.optim.optimizers import SGD
from repro.optim.schedulers import MultiStepLR
from repro.quant.observer import MinMaxObserver
from repro.quant.qmodules import _get_parent, quantizable_layer_names
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.train.trainer import evaluate_model
from repro.utils.misc import clone_module


@dataclass
class WrapNetConfig:
    """WrapNet hyper-parameters."""

    weight_bits: int = 2
    act_bits: int = 4
    acc_bits: int = 12
    """Accumulator width; overflow wraps modulo ``2**acc_bits``."""

    overflow_penalty: float = 1e-4
    """Weight of the overflow-rate regulariser."""

    cyclic: bool = True
    """Use the cyclic activation (WrapNet's key trick); if False the
    wrapped value is used directly."""


def wrap_to_signed(values: np.ndarray, bits: int) -> np.ndarray:
    """Wrap integers into the signed two's-complement range of ``bits``."""
    modulus = 2 ** bits
    half = modulus // 2
    return ((values + half) % modulus) - half


def cyclic_map(values: np.ndarray, bits: int) -> Tuple[np.ndarray, np.ndarray]:
    """WrapNet's cyclic activation on wrapped accumulators.

    Returns ``(mapped, gradient_mask)``. Inside the safe zone
    (|v| <= half/2) the map is identity with gradient 1; beyond it the
    response folds back linearly towards zero with gradient -1, giving a
    continuous triangle-shaped response over the wrap circle.
    """
    half = 2 ** (bits - 1)
    safe = half / 2.0
    magnitude = np.abs(values)
    folded = np.where(magnitude <= safe, values, np.sign(values) * (half - magnitude))
    gradient = np.where(magnitude <= safe, 1.0, -1.0)
    return folded, gradient


class _WrapMixin:
    """Shared integer-accumulator simulation for conv and linear layers."""

    def _init_wrap(self, config: WrapNetConfig):
        self.config = config
        # Same outlier-robust activation range as the Q modules, so the
        # WrapNet comparison isolates the accumulator behaviour.
        self.act_observer = MinMaxObserver(percentile=99.0)
        self.calibrating = False

    def _quantize_input(self, x: Tensor) -> Tuple[Tensor, float]:
        """Fake-quantize activations to ``act_bits``; returns the int scale."""
        if self.training or self.calibrating or not self.act_observer.initialized:
            self.act_observer.observe(x.data)
        _, upper = self.act_observer.range_for_relu()
        levels = 2 ** self.config.act_bits
        if upper <= 0:
            return x, 1.0
        scale = upper / (levels - 1)
        from repro.quant.ste import ste_quantize_activations

        return ste_quantize_activations(x, self.config.act_bits, 0.0, upper), scale

    def _weight_scale(self) -> float:
        bound = float(np.max(np.abs(self.weight.data)))
        levels = 2 ** self.config.weight_bits
        # Symmetric range [-bound, bound] quantized to `levels` values.
        return 2 * bound / (levels - 1) if bound > 0 else 1.0

    def _wrap_output(self, out: Tensor, scale_product: float) -> Tensor:
        """Wrap the accumulated output as integer arithmetic would."""
        cfg = self.config
        if scale_product <= 0:
            return out
        integer = out.data / scale_product
        wrapped = wrap_to_signed(np.round(integer), cfg.acc_bits)
        overflow_mask = np.abs(np.round(integer)) >= 2 ** (cfg.acc_bits - 1)
        self.last_overflow_rate = float(overflow_mask.mean())
        if cfg.cyclic:
            mapped, gradient = cyclic_map(wrapped, cfg.acc_bits)
        else:
            mapped, gradient = wrapped, np.ones_like(wrapped)

        result = mapped * scale_product
        source = out

        def backward(grad):
            return ((source, grad * gradient),)

        return Tensor._make(result, (source,), backward, "wrap_acc")


class WrapConv2d(_WrapMixin, Conv2d):
    """Conv2d with quantized weights/activations and a wrapping accumulator."""

    def __init__(self, *args, config: Optional[WrapNetConfig] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._init_wrap(config if config is not None else WrapNetConfig())

    @classmethod
    def from_float(cls, conv: Conv2d, config: WrapNetConfig) -> "WrapConv2d":
        module = cls(
            conv.in_channels,
            conv.out_channels,
            conv.kernel_size,
            stride=conv.stride,
            padding=conv.padding,
            bias=conv.bias is not None,
            config=config,
        )
        module.weight.data[...] = conv.weight.data
        if conv.bias is not None:
            module.bias.data[...] = conv.bias.data
        return module

    def effective_weight(self) -> Tensor:
        from repro.quant.ste import ste_quantize_weights

        bits = np.full(self.out_channels, self.config.weight_bits, dtype=np.int64)
        return ste_quantize_weights(self.weight, bits)

    def forward(self, x: Tensor) -> Tensor:
        x, act_scale = self._quantize_input(x)
        out = F.conv2d(
            x, self.effective_weight(), None, stride=self.stride, padding=self.padding
        )
        out = self._wrap_output(out, act_scale * self._weight_scale())
        if self.bias is not None:
            out = out + self.bias.reshape((1, -1, 1, 1))
        return out


class WrapLinear(_WrapMixin, Linear):
    """Linear layer with quantized operands and a wrapping accumulator."""

    def __init__(self, *args, config: Optional[WrapNetConfig] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._init_wrap(config if config is not None else WrapNetConfig())

    @classmethod
    def from_float(cls, fc: Linear, config: WrapNetConfig) -> "WrapLinear":
        module = cls(
            fc.in_features,
            fc.out_features,
            bias=fc.bias is not None,
            config=config,
        )
        module.weight.data[...] = fc.weight.data
        if fc.bias is not None:
            module.bias.data[...] = fc.bias.data
        return module

    def effective_weight(self) -> Tensor:
        from repro.quant.ste import ste_quantize_weights

        bits = np.full(self.out_features, self.config.weight_bits, dtype=np.int64)
        return ste_quantize_weights(self.weight, bits)

    def forward(self, x: Tensor) -> Tensor:
        x, act_scale = self._quantize_input(x)
        out = F.linear(x, self.effective_weight(), None)
        out = self._wrap_output(out, act_scale * self._weight_scale())
        if self.bias is not None:
            out = out + self.bias
        return out


def build_wrapnet(model: Module, config: WrapNetConfig) -> Module:
    """Convert a float model's quantizable layers to wrapping layers.

    First and output layers stay full precision (same protocol as CQ and
    APN in Sec. IV).
    """
    network = clone_module(model)
    for name in quantizable_layer_names(network):
        parent, attr = _get_parent(network, name)
        layer = parent._modules[attr]
        if isinstance(layer, Conv2d):
            setattr(parent, attr, WrapConv2d.from_float(layer, config))
        elif isinstance(layer, Linear):
            setattr(parent, attr, WrapLinear.from_float(layer, config))
    return network


def overflow_penalty(model: Module) -> float:
    """Mean overflow rate across wrapping layers (the regulariser's value)."""
    rates = [
        module.last_overflow_rate
        for module in model.modules()
        if isinstance(module, (WrapConv2d, WrapLinear))
        and hasattr(module, "last_overflow_rate")
    ]
    return float(np.mean(rates)) if rates else 0.0


@dataclass
class WrapNetResult:
    model: Module
    accuracy: float
    overflow_rate: float


def train_wrapnet(
    model: Module,
    dataset,
    config: WrapNetConfig,
    epochs: int = 10,
    lr: float = 0.01,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    batch_size: int = 100,
    seed: int = 0,
) -> WrapNetResult:
    """Fine-tune a WrapNet conversion of ``model`` and evaluate it.

    The overflow penalty is applied as a loss scale on the gradient step
    (the penalty itself is piecewise constant, so it acts through the
    recorded overflow rate as in the original paper's soft variant).
    """
    network = build_wrapnet(model, config)
    train_loader = DataLoader(
        ArrayDataset(dataset.train_images, dataset.train_labels),
        batch_size=batch_size,
        shuffle=True,
        seed=seed,
    )
    optimizer = SGD(
        network.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay
    )
    scheduler = MultiStepLR(
        optimizer, milestones=[max(1, epochs // 2), max(2, (3 * epochs) // 4)], gamma=0.1
    )
    for _epoch in range(epochs):
        network.train()
        for images, labels in train_loader:
            logits = network(Tensor(images))
            loss = F.cross_entropy(logits, labels)
            penalty = overflow_penalty(network)
            scaled = loss * (1.0 + config.overflow_penalty * penalty)
            optimizer.zero_grad()
            scaled.backward()
            optimizer.step()
        scheduler.step()

    test_loader = DataLoader(
        ArrayDataset(dataset.test_images, dataset.test_labels), batch_size=batch_size
    )
    network.eval()
    accuracy = evaluate_model(network, test_loader).accuracy
    return WrapNetResult(network, accuracy, overflow_penalty(network))
