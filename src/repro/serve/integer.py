"""Integer-MAC serving backend: execute packed artifact codes directly.

The float serving path (:func:`~repro.serve.artifact.build_serving_model`)
dequantizes the CQW1 codes back into float weights and runs float
forwards. This module is the deployment-faithful alternative —
``ServeConfig(backend="integer")`` — where the packed integer codes
**are** the deployable program:

* :func:`compile_integer_serving` compiles one
  :class:`~repro.quant.integer.IntegerLayerSpec` per quantized layer
  straight from the artifact's :class:`~repro.quant.export.LayerExport`
  payload (codes, range, per-filter bits) — the float weight is never
  reconstructed. The specs shadow the layer forwards of a sidecar-built
  *shell* model (placeholder zero weights, real biases / BN statistics /
  calibrated activation ranges), so unquantized layers keep running in
  float exactly as a deployment with FP fallback layers would.
* :class:`IntegerServingModel` is the engine-facing facade: it walks and
  quacks like a :class:`~repro.nn.module.Module` (``__call__``/``eval``/
  ``named_parameters``), serves eq. (2)'s integer MACs via the im2col →
  batched-matmul lowering of :mod:`repro.quant.integer` with int64
  accumulators, tracks ``max_acc_bits()`` for
  :class:`~repro.serve.engine.ServeStats`, and supports the cache's
  copy-on-lease protocol through :meth:`IntegerServingModel.clone`
  (private accumulator stats, shared immutable codes).

**Parity contract.** Integer-served predictions agree with the float
engine within the *derived rescale bound* of
:func:`integer_parity_rtol`: both backends accumulate the same products
regrouped (``sum((s_f*c + lower) * x)`` vs ``s_f*sum(c*x) +
lower*sum(x)``), so the only disagreement is float64 reassociation
error, which standard rounding analysis bounds by the accumulation
lengths the export itself records. Where the arithmetic allows
exactness — pruned 0-bit filters, whose outputs are exactly ``bias`` on
both paths — the tests demand it bitwise. The full derivation lives in
``docs/architecture.md`` (Serving → Integer backend).
:func:`verify_integer_parity` checks the bound and, on failure, names
the first offending layer with its max abs error (the serve-side twin
of ``verify_export(strict=True)``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.nn.module import Module
from repro.quant.export import QuantizedExport
from repro.quant.integer import (
    IntegerLayerSpec,
    capture_quantized_inputs,
    compile_integer_layer_from_export,
    integer_forward,
)
from repro.quant.qmodules import quantized_layers
from repro.serve.engine import _model_input_dtype
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.misc import clone_module

#: Safety factor of the derived parity bound. The first-order rounding
#: analysis (see docs) bounds per-layer reassociation error by
#: ``~(n_macs + 4) * eps`` relative to the accumulated magnitude;
#: the factor absorbs the magnitude ratio between hidden activations
#: and the logits the bound is normalized against (batch norm keeps the
#: presets' activations O(1-10)) plus propagation through the float
#: tail layers.
INTEGER_PARITY_SAFETY = 256.0


def integer_parity_rtol(export: QuantizedExport) -> float:
    """The derived rescale bound (relative) for one artifact.

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
    """Integer-backend output exceeded the derived rescale bound.

    The message names the first offending layer and its max abs error
    (mirroring ``verify_export(strict=True)``)."""


class IntegerServingModel:
    """Engine-facing model that executes packed integer codes.

    Wraps a sidecar-built *shell* module whose quantized layers'
    forwards are shadowed with :func:`integer_forward` closures over
    this instance's own :class:`IntegerLayerSpec` set. The facade
    implements the slice of the :class:`~repro.nn.module.Module`
    protocol the serving stack touches (``__call__``, ``eval``,
    ``named_parameters``), so engines, pools and the replay verifier
    treat both backends uniformly.
    """

    #: Engines read this to label :class:`ServeStats` (absent on plain
    #: float Modules — ``getattr`` defaults to ``"float"``).
    serving_backend = "integer"

    def __init__(
        self,
        shell: Module,
        specs: "OrderedDict[str, IntegerLayerSpec]",
        parity_rtol: float,
    ):
        self._shell = shell
        self.specs = specs
        self.parity_rtol = float(parity_rtol)
        self._install()

    def _install(self) -> None:
        """Shadow each quantized layer's forward with its integer spec.

        Instance attributes shadow the class ``forward`` (the
        :func:`~repro.quant.integer.integer_mode` trick, made
        permanent); installing overwrites any closure a ``deepcopy``
        carried over from a clone source, so a clone never shares
        mutable spec state with its prototype.
        """
        layers = quantized_layers(self._shell)
        missing = set(self.specs) - set(layers)
        if missing:
            raise ValueError(
                f"shell model lacks quantized layers {sorted(missing)}"
            )
        for name, spec in self.specs.items():
            layer = layers[name]

            def make_forward(spec: IntegerLayerSpec):
                def forward(x: Tensor) -> Tensor:
                    return Tensor(integer_forward(spec, np.asarray(x.data)))

                return forward

            object.__setattr__(layer, "forward", make_forward(spec))

    # -- Module protocol (the slice the serving stack uses) -------------
    def __call__(self, x: Tensor) -> Tensor:
        return self._shell(x)

    def eval(self) -> "IntegerServingModel":
        self._shell.eval()
        return self

    def named_parameters(self, prefix: str = ""):
        return self._shell.named_parameters(prefix)

    # -- Integer-backend surface ----------------------------------------
    @property
    def shell(self) -> Module:
        """The wrapped shell module (placeholder quantized weights)."""
        return self._shell

    def max_acc_bits(self) -> int:
        """Widest signed accumulator (bits) any int-MAC batch needed so
        far (0 before any run, and 0 for weight-only specs whose
        activations stay float)."""
        return max(
            (spec.acc_bits_used for spec in self.specs.values()), default=0
        )

    def clone(self) -> "IntegerServingModel":
        """A private copy for one engine (the copy-on-lease primitive).

        The shell's parameter/buffer arrays are deep-copied; each spec
        is a :meth:`~repro.quant.integer.IntegerLayerSpec.lease_copy` —
        the immutable code/bias arrays stay shared, the mutable
        ``acc_bits_used`` statistics are private. ``_install`` then
        replaces the deepcopied forward closures (which still reference
        the prototype's specs) with closures over the private copies.
        """
        shell = clone_module(self._shell)
        specs = OrderedDict(
            (name, spec.lease_copy()) for name, spec in self.specs.items()
        )
        return IntegerServingModel(shell, specs, self.parity_rtol)


def compile_integer_serving(artifact) -> IntegerServingModel:
    """Compile an artifact's packed codes into an integer serving model.

    The shell comes from :func:`~repro.serve.artifact.build_serving_model`
    with ``reconstruct_weights=False`` (sidecar state only — biases, BN,
    calibrated activation ranges; quantized weights are zero
    placeholders), built in float64 whatever the sidecar stores: the
    rescale bound of :func:`integer_parity_rtol` is derived at float64
    eps. Every spec comes from
    :func:`~repro.quant.integer.compile_integer_layer_from_export` on
    the parsed CQW1 payload. No float weight is ever materialized from
    the codes.
    """
    from repro.serve.artifact import build_serving_model

    shell = build_serving_model(artifact, reconstruct_weights=False, dtype=np.float64)
    layers = quantized_layers(shell)
    specs: "OrderedDict[str, IntegerLayerSpec]" = OrderedDict()
    for name, layer_export in artifact.export.layers.items():
        specs[name] = compile_integer_layer_from_export(
            layers[name], layer_export, name
        )
    return IntegerServingModel(
        shell, specs, integer_parity_rtol(artifact.export)
    )


def verify_integer_parity(
    integer_model: IntegerServingModel,
    reference: Module,
    inputs: np.ndarray,
    rtol: Optional[float] = None,
) -> float:
    """Check integer-backend outputs against the float engine's.

    Runs both models on ``inputs`` and asserts
    ``|y_int - y_float| <= rtol * max(1, max|y_float|)`` with the
    model's derived :func:`integer_parity_rtol` (or an explicit
    ``rtol``). On failure, re-runs each layer's integer spec on the
    input the float reference actually fed that layer, and raises
    :class:`IntegerBackendParityError` naming the first layer whose own
    output breaks its bound — localizing a code/scale bug to the layer
    that computes differently rather than the output it surfaces at.
    Returns the observed max abs difference on success. ``reference``
    must compute in float64 (a ``ValueError`` otherwise): the bound is
    derived at float64 eps, and a float32 model's own rounding would
    dwarf it.
    """
    reference_dtype = _model_input_dtype(reference)
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
    difference = (
        float(np.max(np.abs(got - expected))) if expected.size else 0.0
    )
    if difference <= tolerance:
        return difference

    # Localize: replay each spec on the reference layer's captured input.
    _, captured = capture_quantized_inputs(reference, x)
    reference_layers = quantized_layers(reference)
    for name, spec in integer_model.specs.items():
        layer = reference_layers.get(name)
        if layer is None or name not in captured:
            continue
        layer_input = captured[name]
        with no_grad():
            layer_expected = layer(Tensor(layer_input)).data
        layer_got = integer_forward(spec.lease_copy(), layer_input)
        layer_tolerance = rtol * max(
            1.0, float(np.max(np.abs(layer_expected)))
        )
        layer_error = float(np.max(np.abs(layer_expected - layer_got)))
        if layer_error > layer_tolerance:
            raise IntegerBackendParityError(
                f"integer backend disagrees with the float engine beyond "
                f"the rescale bound: layer {name!r} max abs error "
                f"{layer_error:.3e} (bound {layer_tolerance:.3e}); model "
                f"output error {difference:.3e} (bound {tolerance:.3e})"
            )
    raise IntegerBackendParityError(
        f"integer backend disagrees with the float engine beyond the "
        f"rescale bound at the model output: max abs error "
        f"{difference:.3e} (bound {tolerance:.3e}); no single layer "
        f"exceeds its own bound (accumulated cross-layer drift)"
    )
