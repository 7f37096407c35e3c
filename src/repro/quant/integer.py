"""Integer-only inference: execute exported codes with integer MACs.

Fake quantization (:mod:`repro.quant.qmodules`) simulates low-precision
inference in float arithmetic. This module closes the deployment loop:
it runs the *actual integer computation* a uniform-quantization
accelerator would perform, using the same integer codes
:mod:`repro.quant.export` stores, and verifies it reproduces the
fake-quantized network's outputs.

The algebra (per layer, filter ``f``): with the layer's symmetric weight
range ``[lower, upper]``, weight codes ``cw`` and per-filter scale
``s_f = (upper - lower) / (2**bits_f - 1)``, the fake-quantized weight is
``w = s_f * cw + lower``. With ReLU activation range ``[0, a_up]`` and
activation codes ``ca`` scaled by ``s_a = a_up / (2**a_bits - 1)``, the
output is

    y_f = sum(w * x) = s_f * s_a * sum(cw * ca)  +  lower * s_a * sum(ca)

where both sums are pure integer accumulations — exactly eq. (2)'s
levels flowing through a MAC array — followed by one float rescale
(requantization) per output. This is the standard integer-arithmetic
formulation of uniform quantization and why the paper calls the scheme
hardware-friendly (Sec. I/II-A).

Filters at 0 bits are pruned: their outputs are forced to zero (plus
bias), matching the fake-quantized semantics.

Use :func:`integer_mode` to run any fake-quantized model with integer
MACs, or :func:`verify_integer_equivalence` to assert both paths agree.

**Served parity bound.** A served integer model
(``ServeConfig(backend="integer")``) is checked against a float64 build
of the float model by :func:`verify_integer_parity`, within the derived
rescale bound of :func:`integer_parity_rtol`: both sides accumulate the
same products regrouped (``sum((s_f*c + lower) * x)`` vs
``s_f*sum(c*x) + lower*sum(x)``), so the only disagreement is float64
reassociation error, which standard rounding analysis bounds by the
accumulation lengths the export records. Pruned 0-bit filters output
exactly ``bias`` on both paths. The derivation lives in
``docs/architecture.md`` (Serving → Integer backend).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.quant.qmodules import QConv2d, QLinear, quantized_layers
from repro.quant.uniform import quantization_levels
from repro.tensor.functional import apply_inplace, conv_output_size, im2col
from repro.tensor.tensor import Tensor

#: dtype of every integer accumulation (generous; see ``acc_bits_used``).
ACC_DTYPE = np.int64


@dataclass
class IntegerLayerSpec:
    """Deployable integer form of one quantized layer.

    ``codes`` has the full weight shape; pruned filters hold zeros and
    are masked out via ``bits_per_filter``.
    """

    name: str
    kind: str  #: ``"conv"`` or ``"linear"``
    codes: np.ndarray  #: int64, same shape as the float weight
    bits_per_filter: np.ndarray
    weight_lower: float
    weight_upper: float
    bias: Optional[np.ndarray]
    act_bits: Optional[int]  #: None -> activations stay float
    act_upper: float = 0.0
    stride: int = 1
    padding: int = 0
    #: Widest signed accumulator (bits) any output needed so far; updated
    #: on every integer forward. Relevant to low-precision-accumulator
    #: designs like WrapNet [11].
    acc_bits_used: int = 0

    #: Lazily materialized (filters, fan_in) views of ``codes`` in the
    #: accumulator and float64 domains; shared across lease copies (the
    #: codes are immutable after compile).
    _flat_int: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    _flat_float: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )
    #: Lazily computed read-only :meth:`filter_scales`, shared likewise.
    _scales: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    @property
    def num_filters(self) -> int:
        return int(self.codes.shape[0])

    @property
    def macs_per_output(self) -> int:
        """Accumulation length of one output (fan-in per filter)."""
        return int(np.prod(self.codes.shape[1:])) if self.codes.ndim > 1 else 0

    def flat_codes(self, floating: bool) -> np.ndarray:
        """``codes`` reshaped to ``(filters, fan_in)``, cached per domain.

        The float64 view exists for the weight-only path: the codes are
        small integers (≤ 2**max_bits - 1), so casting them is exact,
        and a float GEMM is what BLAS accelerates.
        """
        if floating:
            if self._flat_float is None:
                self._flat_float = self.codes.reshape(
                    self.num_filters, -1
                ).astype(np.float64)
            return self._flat_float
        if self._flat_int is None:
            self._flat_int = np.ascontiguousarray(
                self.codes.reshape(self.num_filters, -1)
            )
        return self._flat_int

    def lease_copy(self) -> "IntegerLayerSpec":
        """A copy with private accumulator stats but shared (immutable)
        code/bias arrays — the copy-on-lease primitive for serving."""
        return replace(self, acc_bits_used=0)

    def filter_scales(self) -> np.ndarray:
        """Per-filter requantization scale ``s_f`` (0 for pruned filters).

        Computed once per spec and returned read-only: every forward
        rescales with it.
        """
        if self._scales is None:
            scales = np.zeros(self.num_filters)
            span = self.weight_upper - self.weight_lower
            for f, bits in enumerate(self.bits_per_filter):
                if bits > 0:
                    scales[f] = span / (quantization_levels(int(bits)) - 1)
            scales.setflags(write=False)
            self._scales = scales
        return self._scales

    @property
    def act_scale(self) -> float:
        """Activation code scale ``s_a`` (1.0 when activations are float)."""
        if self.act_bits is None:
            return 1.0
        return self.act_upper / (quantization_levels(self.act_bits) - 1)


def _activation_spec(layer: Module, name: str) -> Tuple[Optional[int], float]:
    """The layer's (act_bits, act_upper) pair, or (None, 0.0) for float.

    Activation quantization is included only if the layer has it enabled
    with a calibrated, non-degenerate range (mirroring the fake-quant
    forward, which skips quantization for a degenerate range).
    """
    if layer.act_quant_enabled and layer.act_bits is not None:
        layer._sync_observer_from_buffer()
        if not layer.act_observer.initialized:
            raise RuntimeError(
                f"layer {name or type(layer).__name__!r} has activation "
                "quantization enabled but an uncalibrated observer; run "
                "calibrate_activations() first"
            )
        act_lower, candidate_upper = layer.act_observer.range_for_relu()
        if candidate_upper > act_lower:
            return layer.act_bits, candidate_upper
    return None, 0.0


def _layer_geometry(layer: Module) -> Tuple[str, int, int]:
    """(kind, stride, padding) of a quantized layer."""
    if isinstance(layer, QConv2d):
        return "conv", layer.stride, layer.padding
    return "linear", 1, 0


def compile_integer_layer(layer: Module, name: str = "") -> IntegerLayerSpec:
    """Extract the integer execution spec from a QConv2d/QLinear.

    The codes are recomputed from the live float weight with exactly the
    arithmetic :func:`repro.quant.export.export_quantized_weights` uses,
    so a spec compiled here is identical to one compiled from the packed
    artifact (:func:`compile_integer_layer_from_export`) — a regression
    test in ``tests/test_quant_integer.py`` holds the two together.
    """
    if not isinstance(layer, (QConv2d, QLinear)):
        raise TypeError(f"expected QConv2d/QLinear, got {type(layer).__name__}")

    weight = layer.weight.data
    bound = float(np.max(np.abs(weight))) if weight.size else 0.0
    lower, upper = -bound, bound
    span = upper - lower

    codes = np.zeros(weight.shape, dtype=ACC_DTYPE)
    for f in range(layer.num_filters):
        bits = int(layer.bits[f])
        if bits == 0 or span == 0:
            continue
        levels = quantization_levels(bits)
        clipped = np.clip(weight[f], lower, upper)
        codes[f] = np.round((levels - 1) * (clipped - lower) / span).astype(ACC_DTYPE)

    act_bits, act_upper = _activation_spec(layer, name)
    kind, stride, padding = _layer_geometry(layer)

    return IntegerLayerSpec(
        name=name,
        kind=kind,
        codes=codes,
        bits_per_filter=layer.bits.copy(),
        weight_lower=lower,
        weight_upper=upper,
        bias=None if layer.bias is None else layer.bias.data.copy(),
        act_bits=act_bits,
        act_upper=act_upper,
        stride=stride,
        padding=padding,
    )


def compile_integer_layer_from_export(
    layer: Module, layer_export, name: str = ""
) -> IntegerLayerSpec:
    """Compile an execution spec straight from a packed
    :class:`~repro.quant.export.LayerExport` — the deployment path.

    The integer codes, range and per-filter bit widths all come from the
    export (i.e. from the CQW1 bitstream after a pack round trip); the
    float weight is never read, let alone reconstructed. Only the
    non-payload pieces — bias, activation-quantization config, conv
    geometry — come from ``layer``, which in serving is the sidecar-built
    shell whose quantized weights are placeholders.
    """
    if not isinstance(layer, (QConv2d, QLinear)):
        raise TypeError(f"expected QConv2d/QLinear, got {type(layer).__name__}")
    shape = tuple(int(s) for s in layer_export.weight_shape)
    if shape != tuple(layer.weight.data.shape):
        raise ValueError(
            f"layer {name or layer_export.name!r}: export shape {shape} vs "
            f"model shape {tuple(layer.weight.data.shape)}"
        )

    codes = np.zeros(shape, dtype=ACC_DTYPE)
    inner = shape[1:]
    for f, bits in enumerate(layer_export.bits_per_filter):
        if int(bits) == 0:
            continue  # pruned: no payload codes in the export either
        codes[f] = np.asarray(
            layer_export.codes[f], dtype=ACC_DTYPE
        ).reshape(inner)

    act_bits, act_upper = _activation_spec(layer, name)
    kind, stride, padding = _layer_geometry(layer)

    return IntegerLayerSpec(
        name=name or layer_export.name,
        kind=kind,
        codes=codes,
        bits_per_filter=np.asarray(
            layer_export.bits_per_filter, dtype=np.int64
        ).copy(),
        weight_lower=float(layer_export.lower),
        weight_upper=float(layer_export.upper),
        bias=None if layer.bias is None else layer.bias.data.copy(),
        act_bits=act_bits,
        act_upper=act_upper,
        stride=stride,
        padding=padding,
    )


def _encode_activations(spec: IntegerLayerSpec, x: np.ndarray) -> np.ndarray:
    """Quantize activations to integer codes (eq. 2 level indices)."""
    levels = quantization_levels(spec.act_bits)
    clipped = np.clip(x, 0.0, spec.act_upper)
    return np.round((levels - 1) * clipped / spec.act_upper).astype(ACC_DTYPE)


def _record_acc_width(spec: IntegerLayerSpec, acc: np.ndarray) -> None:
    peak = int(np.abs(acc).max()) if acc.size else 0
    bits = int(peak).bit_length() + 1  # sign bit
    spec.acc_bits_used = max(spec.acc_bits_used, bits)


def integer_forward(spec: IntegerLayerSpec, x: np.ndarray) -> np.ndarray:
    """Run one layer with integer MACs; returns float outputs.

    ``x`` is the float input (NCHW for conv, NC for linear). When the
    spec carries activation quantization, the MAC loop is int x int;
    otherwise the weights are integer and activations stay float
    (weight-only quantized execution).
    """
    quantize_acts = spec.act_bits is not None
    if quantize_acts:
        operand = _encode_activations(spec, x)
        s_a = spec.act_scale
    else:
        operand = x
        s_a = 1.0

    if spec.kind == "conv":
        out = _integer_conv(spec, operand, s_a, integer_input=quantize_acts)
    else:
        out = _integer_linear(spec, operand, s_a, integer_input=quantize_acts)

    pruned = spec.bits_per_filter == 0
    if pruned.any():
        if spec.kind == "conv":
            out[:, pruned, :, :] = 0.0
        else:
            out[:, pruned] = 0.0
    if spec.bias is not None:
        if spec.kind == "conv":
            out += spec.bias.reshape(1, -1, 1, 1)
        else:
            out += spec.bias.reshape(1, -1)
    return out


def _rescale(acc: np.ndarray, scale: np.ndarray, offset: np.ndarray) -> np.ndarray:
    """The requantization epilogue ``scale * acc + offset``.

    Same operations in the same order as the out-of-place expression,
    written into ``acc`` when it is a float accumulator (the weight-only
    path); an int64 accumulator is left intact for the caller.
    """
    return apply_inplace(np.add, apply_inplace(np.multiply, acc, scale), offset)


def _integer_linear(
    spec: IntegerLayerSpec, operand: np.ndarray, s_a: float, integer_input: bool
) -> np.ndarray:
    # int x int MACs with int64 accumulators when the input is quantized;
    # on the weight-only path the codes matmul in float64 (an exact cast
    # — codes are small integers — that keeps the GEMM on the BLAS path).
    weights = spec.flat_codes(floating=not integer_input)
    acc = operand @ weights.T  # (N, out)
    if integer_input:
        _record_acc_width(spec, acc)
    code_sum = operand.sum(axis=1, keepdims=True)  # (N, 1)
    scales = spec.filter_scales().reshape(1, -1)
    return _rescale(acc, scales * s_a, spec.weight_lower * s_a * code_sum)


def _integer_conv(
    spec: IntegerLayerSpec, operand: np.ndarray, s_a: float, integer_input: bool
) -> np.ndarray:
    n, _c, h, w = operand.shape
    kh = kw = spec.codes.shape[2]
    cols = im2col(
        operand, (kh, kw), (spec.stride, spec.stride), (spec.padding, spec.padding)
    )  # (N, C*kh*kw, P)
    flat_codes = spec.flat_codes(floating=not integer_input)  # (out, C*kh*kw)
    # Broadcast matmul batches the whole micro-batch through one GEMM
    # per layer (same lowering as the float engine's conv2d; ~3x the
    # einsum formulation this replaced).
    acc = np.matmul(flat_codes, cols)  # (N, out, P)
    if integer_input:
        _record_acc_width(spec, acc)
    code_sum = cols.sum(axis=1)  # (N, P)
    scales = spec.filter_scales().reshape(1, -1, 1)
    out = _rescale(acc, scales * s_a, spec.weight_lower * s_a * code_sum[:, None, :])
    oh = conv_output_size(h, kh, spec.stride, spec.padding)
    ow = conv_output_size(w, kw, spec.stride, spec.padding)
    return out.reshape(n, spec.num_filters, oh, ow)


def max_acc_bits(specs: Mapping[str, IntegerLayerSpec]) -> int:
    """Widest accumulator any layer needed so far (0 before any run)."""
    return max((spec.acc_bits_used for spec in specs.values()), default=0)


def _integer_closure(spec: IntegerLayerSpec):
    def forward(x: Tensor) -> Tensor:
        return Tensor(integer_forward(spec, np.asarray(x.data)))

    return forward


def _remove_forwards(layers: Mapping[str, Module]) -> None:
    for layer in layers.values():
        if "forward" in layer.__dict__:
            object.__delattr__(layer, "forward")


@contextmanager
def integer_mode(model: Module):
    """Context manager: quantized layers execute with integer MACs.

    Inside the context, every QConv2d/QLinear forward runs
    :func:`integer_forward` on its compiled spec; unquantized layers
    (first/output, batch norm, pooling) run normally in float, exactly
    as a deployment with FP fallback layers would. The model should be
    in ``eval()`` mode with calibrated observers.

    Yields the ``{layer name: IntegerLayerSpec}`` dict; each spec's
    ``acc_bits_used`` is populated as inference runs (see
    :func:`max_acc_bits`).
    """
    layers = quantized_layers(model)
    if not layers:
        raise ValueError("model has no quantized layers to compile")
    specs = {name: compile_integer_layer(layer, name) for name, layer in layers.items()}
    try:
        for name, spec in specs.items():
            # The instance attribute shadows the class forward.
            object.__setattr__(layers[name], "forward", _integer_closure(spec))
        yield specs
    finally:
        _remove_forwards(layers)


class IntegerEquivalenceError(AssertionError):
    """Integer execution disagreed with the fake-quantized reference.

    The message names the first offending layer and its max abs error
    (mirroring ``verify_export(strict=True)``), so a code/scale bug is
    localized instead of reported as a bare model-output mismatch.
    """


def capture_quantized_inputs(
    model: Module, inputs: np.ndarray
) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """One reference forward, recording every quantized layer's input.

    Returns ``(model_output, {layer_name: input_array})``. The recorded
    arrays are the *pre-activation-quantization* inputs — exactly what
    :func:`integer_forward` consumes — so per-layer integer execution
    can be replayed against the reference layer's own output.
    """
    from repro.tensor.tensor import no_grad

    layers = quantized_layers(model)
    captured: Dict[str, np.ndarray] = {}
    try:
        for name, layer in layers.items():

            def make_recorder(layer: Module, name: str):
                original = type(layer).forward

                def recorder(x: Tensor) -> Tensor:
                    captured[name] = np.asarray(x.data).copy()
                    return original(layer, x)

                return recorder

            object.__setattr__(layer, "forward", make_recorder(layer, name))
        with no_grad():
            output = model(Tensor(np.asarray(inputs, dtype=np.float64))).data.copy()
    finally:
        _remove_forwards(layers)
    return output, captured


def _layer_errors(
    model: Module, inputs: np.ndarray, specs: Mapping[str, IntegerLayerSpec]
) -> List[Tuple[str, float, float]]:
    """``(name, max abs error, max abs reference output)`` per spec.

    Each spec runs on the input the reference forward actually fed its
    layer, so a disagreement is attributed to the layer that computes
    differently — not to wherever the divergence surfaces downstream.
    """
    from repro.tensor.tensor import no_grad

    _, captured = capture_quantized_inputs(model, inputs)
    layers = quantized_layers(model)
    report: List[Tuple[str, float, float]] = []
    for name, spec in specs.items():
        if name not in captured:
            continue
        x = captured[name]
        with no_grad():
            reference = layers[name](Tensor(x)).data
        got = integer_forward(spec.lease_copy(), x)
        error = float(np.max(np.abs(reference - got))) if reference.size else 0.0
        magnitude = float(np.max(np.abs(reference))) if reference.size else 0.0
        report.append((name, error, magnitude))
    return report


def diagnose_integer_equivalence(
    model: Module, inputs: np.ndarray
) -> List[Tuple[str, float]]:
    """Per-layer max abs error of integer vs fake-quantized execution
    (each layer compiled live and run on its captured input)."""
    specs = {name: compile_integer_layer(layer, name) for name, layer in quantized_layers(model).items()}
    return [(name, error) for name, error, _ in _layer_errors(model, inputs, specs)]


def verify_integer_equivalence(
    model: Module, inputs: np.ndarray, atol: float = 1e-8, strict: bool = False
) -> Tuple[bool, float]:
    """Compare fake-quantized and integer execution on ``inputs``.

    Returns ``(equivalent, max_abs_difference)`` over the model outputs.
    The two paths compute the same sums regrouped, so they agree to
    float64 rounding; a mismatch indicates a real bug (e.g. code/scale
    disagreement), not tolerance noise. With ``strict=True`` a mismatch
    raises :class:`IntegerEquivalenceError` naming the first offending
    layer and its max abs error instead of returning ``False``.
    """
    from repro.tensor.tensor import no_grad

    was_training = model.training
    model.eval()
    x = Tensor(np.asarray(inputs, dtype=np.float64))
    with no_grad():
        fake = model(x).data.copy()
        with integer_mode(model):
            integer = model(x).data.copy()
    model.train(was_training)
    difference = float(np.max(np.abs(fake - integer))) if fake.size else 0.0
    equivalent = bool(difference <= atol)
    if strict and not equivalent:
        report = diagnose_integer_equivalence(model, inputs)
        offenders = [(name, error) for name, error in report if error > atol]
        layer_name, layer_error = (
            offenders[0] if offenders else max(report, key=lambda item: item[1])
        )
        raise IntegerEquivalenceError(
            f"integer execution diverges from the fake-quantized forward "
            f"(max abs error {difference:.3e} at the model output, "
            f"atol {atol:.1e}); first offending layer {layer_name!r} "
            f"(max abs error {layer_error:.3e})"
        )
    return equivalent, difference


#: Safety factor of the derived parity bound. The first-order rounding
#: analysis (see docs) bounds per-layer reassociation error by
#: ``~(n_macs + 4) * eps`` relative to the accumulated magnitude;
#: the factor absorbs the magnitude ratio between hidden activations
#: and the logits the bound is normalized against (batch norm keeps the
#: presets' activations O(1-10)) plus propagation through the float
#: tail layers.
INTEGER_PARITY_SAFETY = 256.0


def integer_parity_rtol(export) -> float:
    """The derived rescale bound (relative) for one
    :class:`~repro.quant.export.QuantizedExport`.

    ``SAFETY * eps64 * sum_layers(macs_per_output + 4)``: each layer
    contributes one length-``n`` dot product per output (the regrouped
    accumulations) plus a handful of scale/bias post-ops. Compared as
    ``|y_int - y_float| <= rtol * max(1, max|y_float|)``.
    """
    eps = float(np.finfo(np.float64).eps)
    terms = 0
    for layer in export.layers.values():
        shape = tuple(layer.weight_shape)
        macs = int(np.prod(shape[1:])) if len(shape) > 1 else 0
        terms += macs + 4
    return INTEGER_PARITY_SAFETY * eps * float(terms)


class IntegerBackendParityError(AssertionError):
    """A served integer model's output exceeded the derived rescale bound.

    The message names the first offending layer and its max abs error
    (mirroring ``verify_export(strict=True)``)."""


def verify_integer_parity(
    integer_model, reference: Module, inputs: np.ndarray, rtol: Optional[float] = None
) -> float:
    """Check a served integer model's outputs against the float model's.

    ``integer_model`` is callable on a :class:`Tensor` and carries its
    ``specs`` and derived ``parity_rtol`` (a served integer plan).
    Asserts ``|y_int - y_float| <= rtol * max(1, max|y_float|)`` with
    that bound (or an explicit ``rtol``). On failure, replays each spec
    on the input the float reference fed its layer, and raises
    :class:`IntegerBackendParityError` naming the first layer whose own
    output breaks its bound. Returns the observed max abs difference on
    success. ``reference`` must compute in float64 (a ``ValueError``
    otherwise): the bound is derived at float64 eps, and a float32
    model's own rounding would dwarf it.
    """
    from repro.tensor.tensor import no_grad

    reference_dtype = next(iter(reference.parameters())).data.dtype
    if reference_dtype != np.float64:
        raise ValueError(
            f"the float reference must compute in float64, not "
            f"{reference_dtype}; build it with "
            "build_serving_model(artifact, dtype=np.float64)"
        )
    rtol = integer_model.parity_rtol if rtol is None else float(rtol)
    x = np.asarray(inputs, dtype=np.float64)
    with no_grad():
        got = integer_model(Tensor(x)).data
        expected = reference(Tensor(x)).data
    tolerance = rtol * max(1.0, float(np.max(np.abs(expected))))
    difference = float(np.max(np.abs(got - expected))) if expected.size else 0.0
    if difference <= tolerance:
        return difference
    for name, error, magnitude in _layer_errors(reference, x, integer_model.specs):
        if error > rtol * max(1.0, magnitude):
            raise IntegerBackendParityError(
                f"integer backend disagrees with the float engine beyond "
                f"the rescale bound: layer {name!r} max abs error "
                f"{error:.3e} (bound {rtol * max(1.0, magnitude):.3e}); model "
                f"output error {difference:.3e} (bound {tolerance:.3e})"
            )
    raise IntegerBackendParityError(
        f"integer backend disagrees with the float engine beyond the "
        f"rescale bound at the model output: max abs error "
        f"{difference:.3e} (bound {tolerance:.3e}); no single layer "
        f"exceeds its own bound (accumulated cross-layer drift)"
    )
