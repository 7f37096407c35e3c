"""Compiled serving plans: one channel-last program for both backends.

A leased serving model is compiled once into a flat list of steps —
NHWC activations, batch norm folded into the preceding conv/linear,
``as_strided`` conv columns, one GEMM per sample — and engines and
process workers forward through it instead of the Module tree. The
integer backend is the same plan with float64 code matrices in its
quantized layers (:func:`compile_integer_serving`). A plan is immutable;
:meth:`ServingPlan.clone` shares its read-only arrays. Design and
measurements: ``docs/architecture.md`` (Serving → The compiled serving
plan).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.models.resnet import BasicBlock
from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Module
from repro.quant.integer import (
    IntegerLayerSpec,
    _activation_spec,
    compile_integer_layer_from_export,
    integer_parity_rtol,
    max_acc_bits,
)
from repro.quant.qmodules import QConv2d, QLinear, quantized_layers
from repro.quant.uniform import quantization_levels, quantize_uniform
from repro.tensor.tensor import Tensor

_Specs = Mapping[str, IntegerLayerSpec]


class _Affine:
    """One conv or linear layer, with its batch norm and ReLU fused.

    Columns end in a ones column. A float layer multiplies by its folded
    ``[W·g; bias']``. An integer layer multiplies by
    ``[[codes, 1, 0], [0, 0, 1]]`` — accumulators, row sum and a one per
    output position — then by the ``(F + 2, F)`` rescale
    ``[diag(s_f·s_a·g); lower·s_a·g; bias']``: the epilogue
    ``scale·acc + lower·rowsum + bias`` as a second GEMM.
    """

    def __init__(self, layer, bn, relu, dtype, spec: Optional[IntegerLayerSpec], name):
        self.conv = isinstance(layer, Conv2d)
        self.geometry = (layer.kernel_size, layer.stride, layer.padding) if self.conv else None
        self.relu, self.name, self.integer = relu, name, spec is not None
        quantized = isinstance(layer, (QConv2d, QLinear))
        self.act_bits, self.act_upper = _activation_spec(layer, name) if quantized else (None, 0.0)
        features = layer.weight.shape[0]
        gain = np.ones(features)
        bias = np.zeros(features) if layer.bias is None else np.asarray(layer.bias.data, np.float64)
        if bn is not None:
            gain = np.asarray(bn.weight.data, np.float64) / np.sqrt(
                np.asarray(bn.running_var, np.float64) + bn.eps
            )
            bias = gain * (bias - bn.running_mean) + np.asarray(bn.bias.data, np.float64)
        weight = spec.codes if self.integer else np.asarray(layer.weight.data, np.float64)
        # (F, C, KH, KW) -> (KH, KW, C, F): rows in the column order of an
        # NHWC window, so cols @ W is channel-last.
        matrix = (weight.transpose(2, 3, 1, 0) if self.conv else weight.T).reshape(-1, features)
        self.rescale = None
        if self.integer:
            fan_in, s_a = len(matrix), spec.act_scale
            self.weight = np.zeros((fan_in + 1, features + 2))
            self.weight[:fan_in, :features] = matrix
            self.weight[:fan_in, features] = self.weight[fan_in, features + 1] = 1.0
            lower = np.where(spec.bits_per_filter > 0, spec.weight_lower * s_a * gain, 0.0)
            scale = np.diag(spec.filter_scales() * s_a * gain)
            self.rescale = np.vstack([scale, lower, bias]).astype(dtype)
            self.rescale.setflags(write=False)  # shared by every clone
        else:
            self.weight = np.vstack([matrix * gain, bias])
        self.weight = self.weight.astype(dtype)
        self.weight.setflags(write=False)

    def __call__(self, x: np.ndarray, specs: _Specs) -> np.ndarray:
        if self.act_bits is not None and self.integer:
            levels = quantization_levels(self.act_bits)
            x = np.round((levels - 1) * np.clip(x, 0.0, self.act_upper) / self.act_upper)
        elif self.act_bits is not None:
            x = quantize_uniform(x, self.act_bits, 0.0, self.act_upper)
        if self.conv:
            cols, shape = _columns(x, *self.geometry)
        else:
            cols, shape = np.empty((len(x), len(self.weight)), x.dtype), None
            cols[:, :-1] = x.reshape(len(x), -1)
            cols[:, -1] = 1
        out = np.matmul(cols, self.weight)
        if self.rescale is not None:
            if self.act_bits is not None and out.size:
                acc, spec = out[..., :-2], specs[self.name]
                peak = int(max(acc.max(), -acc.min()))
                spec.acc_bits_used = max(spec.acc_bits_used, peak.bit_length() + 1)
            out = np.matmul(out, self.rescale)
        if self.relu:
            np.maximum(out, 0, out=out)
        return out if shape is None else out.reshape(shape)


def _columns(x: np.ndarray, kernel: int, stride: int, padding: int):
    """``(N, P, K·K·C + 1)`` columns of an NHWC batch (the last column is
    ones), and the NHWC output shape."""
    n, h, w, c = x.shape
    if padding:
        padded = np.zeros((n, h + 2 * padding, w + 2 * padding, c), x.dtype)
        padded[:, padding : padding + h, padding : padding + w] = x
        x = padded
    oh = (x.shape[1] - kernel) // stride + 1
    ow = (x.shape[2] - kernel) // stride + 1
    sn, sh, sw, sc = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x, (n, oh, ow, kernel, kernel, c), (sn, sh * stride, sw * stride, sh, sw, sc)
    )
    fan_in = kernel * kernel * c
    cols = np.empty((n, oh * ow, fan_in + 1), x.dtype)
    cols[..., fan_in] = 1
    np.copyto(cols[..., :fan_in].reshape(windows.shape), windows)
    return cols, (n, oh, ow, -1)


class _Residual:
    """A ResNet basic block: ``relu(main(x) + shortcut(x))`` in NHWC."""

    def __init__(self, main: List, shortcut: List):
        self.main, self.shortcut = main, shortcut

    def __call__(self, x: np.ndarray, specs: _Specs) -> np.ndarray:
        out = _run(self.main, x, specs)
        out += _run(self.shortcut, x, specs)
        return np.maximum(out, 0, out=out)


def _max_pool(kernel: int, stride: int):
    def pool(x: np.ndarray, specs: _Specs) -> np.ndarray:
        oh = (x.shape[1] - kernel) // stride + 1
        ow = (x.shape[2] - kernel) // stride + 1
        taps = [
            x[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
            for i in range(kernel)
            for j in range(kernel)
        ]
        out = np.maximum(taps[0], taps[-1])
        for tap in taps[1:-1]:
            np.maximum(out, tap, out=out)
        return out

    return pool


def _to_nhwc(x: np.ndarray, specs: _Specs) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(0, 2, 3, 1))


def _flatten_nhwc(x: np.ndarray, specs: _Specs) -> np.ndarray:
    return x.transpose(0, 3, 1, 2).reshape(len(x), -1)


def _run(steps: List, x: np.ndarray, specs: _Specs) -> np.ndarray:
    for step in steps:
        x = step(x, specs)
    return x


def _compile_chain(modules: List[Module], names: Dict[int, str], dtype, specs: _Specs, nhwc: bool):
    """Steps for a chain of modules. ``nhwc`` says whether the chain's
    input is already channel-last; otherwise it is as the caller passed
    it (NCHW, or flat for an MLP)."""
    steps: List = []
    index = 0
    while index < len(modules):
        module = modules[index]
        index += 1
        if isinstance(module, (Conv2d, BasicBlock, MaxPool2d)) and not nhwc:
            steps.append(_to_nhwc)
            nhwc = True
        if isinstance(module, (Conv2d, Linear)):
            bn = None
            if index < len(modules) and isinstance(modules[index], (BatchNorm1d, BatchNorm2d)):
                bn, index = modules[index], index + 1
            relu = index < len(modules) and isinstance(modules[index], ReLU)
            index += relu
            if isinstance(module, Linear) and nhwc:
                steps.append(_flatten_nhwc)
            name = names[id(module)]
            steps.append(_Affine(module, bn, relu, dtype, specs.get(name), name))
            nhwc = isinstance(module, Conv2d)
        elif isinstance(module, BasicBlock):
            main = [module.conv1, module.bn1, module.relu1, module.conv2, module.bn2]
            shortcut = [] if isinstance(module.downsample, Identity) else list(module.downsample)
            steps.append(_Residual(
                _compile_chain(main, names, dtype, specs, nhwc),
                _compile_chain(shortcut, names, dtype, specs, nhwc),
            ))
        elif isinstance(module, MaxPool2d):
            steps.append(_max_pool(module.kernel_size, module.stride))
        elif isinstance(module, (GlobalAvgPool2d, Flatten)) and nhwc:
            pool = isinstance(module, GlobalAvgPool2d)
            steps.append((lambda x, specs: x.mean(axis=(1, 2))) if pool else _flatten_nhwc)
            nhwc = False
        else:
            raise TypeError(f"a serving plan cannot compile {type(module).__name__} here")
    return steps


class ServingPlan:
    """A served model compiled into channel-last steps: callable on a
    :class:`Tensor` like a Module, with the ``input_dtype`` and
    ``serving_backend`` engines read. Integer plans also carry their
    ``specs``, the derived ``parity_rtol`` and ``max_acc_bits()``."""

    def __init__(self, steps: List, input_dtype, specs: Optional[_Specs] = None, parity_rtol: float = 0.0):
        self.steps = steps
        self.input_dtype = np.dtype(input_dtype)
        self.specs: "OrderedDict[str, IntegerLayerSpec]" = OrderedDict(specs or {})
        self.parity_rtol = float(parity_rtol)
        self.serving_backend = "integer" if self.specs else "float"

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)

    def forward(self, x: Tensor) -> Tensor:
        return Tensor(_run(self.steps, np.asarray(x.data, self.input_dtype), self.specs))

    def eval(self) -> "ServingPlan":
        return self

    def max_acc_bits(self) -> int:
        """Widest signed accumulator any int-MAC batch needed so far (0
        before any run, and 0 when activations stay float)."""
        return max_acc_bits(self.specs)

    def clone(self) -> "ServingPlan":
        """A lease copy: shared steps and arrays, private accumulator stats."""
        specs = OrderedDict((name, spec.lease_copy()) for name, spec in self.specs.items())
        return ServingPlan(self.steps, self.input_dtype, specs, self.parity_rtol)


def compile_plan(model: Module, specs: Optional[_Specs] = None, parity_rtol: float = 0.0) -> ServingPlan:
    """Compile an eval-mode serving model over its ``segment_modules()``
    chain, in the dtype of its parameters. Layers named in ``specs`` run
    their integer codes; their placeholder float weights are never read."""
    dtype = next(iter(model.parameters())).data.dtype
    names = {id(module): name for name, module in model.named_modules()}
    steps = _compile_chain(list(model.segment_modules().values()), names, dtype, specs or {}, False)
    return ServingPlan(steps, dtype, specs, parity_rtol)


def compile_integer_serving(artifact) -> ServingPlan:
    """Compile an artifact's packed codes into an integer serving plan.

    The sidecar state comes from a float64 shell with placeholder
    quantized weights (the rescale bound is derived at float64 eps), and
    every spec from the parsed CQW1 payload: no float weight is ever
    materialized from the codes.
    """
    from repro.serve.artifact import build_serving_model

    shell = build_serving_model(artifact, reconstruct_weights=False, dtype=np.float64)
    layers = quantized_layers(shell)
    specs = OrderedDict(
        (name, compile_integer_layer_from_export(layers[name], layer_export, name))
        for name, layer_export in artifact.export.layers.items()
    )
    return compile_plan(shell, specs, integer_parity_rtol(artifact.export))
