"""Per-layer activation bit-width allocation (extension).

The paper quantizes activations model-wide: "activations were directly
set to the desired bit-widths" (Sec. IV). This module extends CQ's
budgeting idea to the activation side: given an average activation-bit
budget (weighted by each layer's activation count, the storage/traffic
that actually moves through the accelerator), a greedy sensitivity
search assigns each quantized layer its own activation width.

The mechanism mirrors the weight-side search's evaluation protocol —
inference on a fixed validation batch, no back-propagation — and the
layer-wise greedy demotion of :mod:`repro.baselines.layerwise`: start
every layer at the widest candidate, repeatedly demote the layer whose
demotion costs the least validation accuracy, stop at the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hw.profile import ModelProfile, profile_model
from repro.nn.module import Module
from repro.quant.qmodules import calibrate_activations, quantized_layers
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.misc import clone_module


@dataclass
class ActAllocationConfig:
    """Hyper-parameters of the activation-bit search."""

    target_avg_bits: float = 4.0
    max_bits: int = 8
    min_bits: int = 2  #: demotion floor; 1-bit activations destroy ReLU nets
    search_batch_size: int = 200

    def __post_init__(self):
        if not 1 <= self.min_bits <= self.max_bits:
            raise ValueError(
                f"need 1 <= min_bits <= max_bits, got {self.min_bits}, {self.max_bits}"
            )
        if self.target_avg_bits < self.min_bits:
            raise ValueError(
                f"budget {self.target_avg_bits} unreachable with "
                f"min_bits={self.min_bits}"
            )


@dataclass
class ActAllocationResult:
    """Per-layer activation widths plus bookkeeping."""

    act_bits: Dict[str, int]
    average_bits: float  #: activation-count-weighted average
    evaluations: int
    search_accuracy: float


def _set_layer_act_bits(layer, bits: Optional[int]) -> None:
    """Point one quantized layer at a new activation width."""
    layer.act_bits = bits
    layer.act_quant_enabled = bits is not None


def apply_activation_bits(model: Module, act_bits: Dict[str, int]) -> None:
    """Apply a per-layer activation assignment to a quantized model."""
    layers = quantized_layers(model)
    for name, bits in act_bits.items():
        if name not in layers:
            raise KeyError(f"unknown quantized layer {name!r}")
        _set_layer_act_bits(layers[name], int(bits))


def _activation_weights(profile: ModelProfile, names: List[str]) -> Dict[str, int]:
    """Activation counts per layer (the weighting of the average)."""
    return {name: profile[name].output_elements for name in names}


def allocate_activation_bits(
    model: Module,
    dataset,
    config: ActAllocationConfig,
    input_shape: Optional[Tuple[int, ...]] = None,
) -> ActAllocationResult:
    """Search per-layer activation widths under the average-bit budget.

    ``model`` must already be weight-quantized (QConv2d/QLinear layers);
    the search clones it, so the input model is untouched. The average
    is weighted by each layer's activation count (its output feature
    map), matching how activation traffic scales on hardware.
    """
    surrogate = clone_module(model)
    layers = quantized_layers(surrogate)
    if not layers:
        raise ValueError("model has no quantized layers; quantize weights first")
    names = list(layers)

    shape = input_shape if input_shape is not None else dataset.image_shape
    profile = profile_model(surrogate, shape)
    act_weights = _activation_weights(profile, names)
    total_activations = sum(act_weights.values())

    count = min(config.search_batch_size, len(dataset.val_images))
    val_images = dataset.val_images[:count]
    val_labels = dataset.val_labels[:count]

    # Calibrate observers once at the widest setting; ranges are width-
    # independent (they describe the float activations).
    for layer in layers.values():
        _set_layer_act_bits(layer, config.max_bits)
    calibrate_activations(surrogate, [dataset.train_images[:count]])
    surrogate.eval()

    evaluations = 0

    def accuracy_of(assignment: Dict[str, int]) -> float:
        nonlocal evaluations
        evaluations += 1
        for name, bits in assignment.items():
            _set_layer_act_bits(layers[name], bits)
        with no_grad():
            logits = surrogate(Tensor(val_images))
        return F.accuracy(logits, val_labels)

    def avg_of(assignment: Dict[str, int]) -> float:
        weighted = sum(assignment[name] * act_weights[name] for name in names)
        return weighted / total_activations

    assignment = {name: config.max_bits for name in names}
    accuracy = accuracy_of(assignment)
    while avg_of(assignment) > config.target_avg_bits:
        candidates: List[Tuple[float, int, str]] = []
        for name in names:
            if assignment[name] <= config.min_bits:
                continue
            trial = dict(assignment)
            trial[name] -= 1
            # Tie-break toward the layer with the most activations: the
            # biggest budget progress for the same accuracy cost.
            candidates.append((accuracy_of(trial), act_weights[name], name))
        if not candidates:
            break
        best_accuracy, _weight, best_name = max(candidates)
        assignment[best_name] -= 1
        accuracy = best_accuracy

    return ActAllocationResult(
        act_bits=assignment,
        average_bits=avg_of(assignment),
        evaluations=evaluations,
        search_accuracy=accuracy,
    )
