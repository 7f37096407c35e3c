"""Layer-wise mixed-precision baseline (the granularity of HAQ [14]).

The paper contrasts its filter-level quantization with layer-level
methods: "[14] arranges the bit-width at layer-level by reinforcement
learning. However, compared with filter-level quantization, layer-level
quantization is not sufficiently fine-grained" (Sec. I). This module
provides that comparator: every filter within a layer shares one
bit-width, and a search assigns per-layer widths under the same average
bit budget CQ uses.

Two search strategies are provided (HAQ's RL agent reduces to a
sensitivity-driven allocator at this problem size, so the standard
functional equivalents are used):

* ``"greedy"`` — start all layers at ``max_bits``; repeatedly demote the
  layer whose 1-bit demotion loses the least validation accuracy, until
  the budget is met (greedy sensitivity allocation).
* ``"anneal"`` — simulated annealing over per-layer assignments with a
  Metropolis acceptance rule, exploring non-greedy moves.

Refinement reuses CQ's knowledge-distillation recipe so accuracy
differences are attributable to the *granularity* of the arrangement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import CQConfig
from repro.core.distill import refine_quantized_model
from repro.core.evaluator import EvalStats
from repro.core.search import make_weight_quant_evaluator
from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn.module import Module
from repro.quant.bitmap import BitWidthMap
from repro.quant.bn import reestimate_batchnorm_stats
from repro.quant.qmodules import (
    apply_bit_map,
    calibrate_activations,
    quantize_model,
    quantized_layers,
)
from repro.train.trainer import History, evaluate_model
from repro.utils.misc import clone_module


@dataclass
class LayerwiseConfig:
    """Hyper-parameters of the layer-wise search."""

    target_avg_bits: float = 2.0
    max_bits: int = 4
    min_bits: int = 1  #: layers are never demoted below this (no pruning)
    act_bits: Optional[int] = None
    method: str = "greedy"  #: ``"greedy"`` or ``"anneal"``
    anneal_iterations: int = 200
    anneal_initial_temperature: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("greedy", "anneal"):
            raise ValueError(f"method must be 'greedy' or 'anneal', got {self.method!r}")
        if not 0 <= self.min_bits <= self.max_bits:
            raise ValueError(
                f"need 0 <= min_bits <= max_bits, got {self.min_bits}, {self.max_bits}"
            )
        if self.target_avg_bits < self.min_bits:
            raise ValueError(
                f"budget {self.target_avg_bits} is unreachable with "
                f"min_bits={self.min_bits}"
            )


@dataclass
class LayerwiseSearchResult:
    """Outcome of the layer-level bit allocation."""

    layer_bits: Dict[str, int]
    bit_map: BitWidthMap
    evaluations: int
    search_accuracy: float  #: validation accuracy of the final assignment
    eval_stats: Optional[EvalStats] = None
    """Evaluator cache counters — greedy/anneal probes revisit many
    assignments, so the whole-assignment memo absorbs most of them, and
    each probe demotes a single layer, so segment-granular prefix
    resumption skips every segment before that layer's block (ResNet
    included; see ``docs/architecture.md``)."""

    @property
    def average_bits(self) -> float:
        return self.bit_map.average_bits()


@dataclass
class LayerwiseBaselineResult:
    """Quantized model + accuracies, mirroring the other baselines."""

    model: Module
    search: LayerwiseSearchResult
    accuracy_before_refine: float
    accuracy_after_refine: float
    refine_history: History


def _layer_shapes(model: Module, max_bits: int) -> Tuple[Dict[str, int], Dict[str, int]]:
    """(filters per layer, weights per filter) of the quantizable layers."""
    probe = clone_module(model)
    quantize_model(probe, max_bits=max_bits, act_bits=None)
    layers = quantized_layers(probe)
    filter_counts = {name: layer.num_filters for name, layer in layers.items()}
    weights_per_filter = {name: layer.weights_per_filter for name, layer in layers.items()}
    return filter_counts, weights_per_filter


def _expand(layer_bits: Dict[str, int], filter_counts: Dict[str, int]) -> Dict[str, np.ndarray]:
    """Per-layer scalar widths -> per-filter arrays (all filters equal)."""
    return {
        name: np.full(filter_counts[name], bits, dtype=np.int64)
        for name, bits in layer_bits.items()
    }


def _average_bits(
    layer_bits: Dict[str, int],
    filter_counts: Dict[str, int],
    weights_per_filter: Dict[str, int],
) -> float:
    total_bits = sum(
        layer_bits[name] * filter_counts[name] * weights_per_filter[name]
        for name in layer_bits
    )
    total_weights = sum(
        filter_counts[name] * weights_per_filter[name] for name in layer_bits
    )
    return total_bits / total_weights


def search_layerwise_bits(
    model: Module,
    dataset,
    config: LayerwiseConfig,
    search_batch_size: int = 200,
) -> LayerwiseSearchResult:
    """Allocate one bit-width per quantizable layer under the budget.

    Evaluation matches CQ's search protocol (weights-only fake
    quantization on a fixed validation batch, served by the cached
    :class:`~repro.core.evaluator.IncrementalEvaluator`), so the two
    searches see the same signal and differ only in granularity.
    """
    filter_counts, weights_per_filter = _layer_shapes(model, config.max_bits)
    evaluate = make_weight_quant_evaluator(
        model,
        dataset.val_images[:search_batch_size],
        dataset.val_labels[:search_batch_size],
        config.max_bits,
    )
    evaluations = 0

    def accuracy_of(layer_bits: Dict[str, int]) -> float:
        nonlocal evaluations
        evaluations += 1
        return float(evaluate(_expand(layer_bits, filter_counts)))

    def avg_of(layer_bits: Dict[str, int]) -> float:
        return _average_bits(layer_bits, filter_counts, weights_per_filter)

    if config.method == "greedy":
        layer_bits, accuracy = _greedy_allocate(accuracy_of, avg_of, filter_counts, config)
    else:
        layer_bits, accuracy = _anneal_allocate(accuracy_of, avg_of, filter_counts, config)

    bit_map = BitWidthMap(_expand(layer_bits, filter_counts), weights_per_filter)
    stats = getattr(evaluate, "stats", None)
    return LayerwiseSearchResult(
        layer_bits=layer_bits,
        bit_map=bit_map,
        evaluations=evaluations,
        search_accuracy=accuracy,
        eval_stats=stats.snapshot() if isinstance(stats, EvalStats) else None,
    )


def _greedy_allocate(accuracy_of, avg_of, filter_counts, config) -> Tuple[Dict[str, int], float]:
    # Tie-breaking matters: on a small validation batch many demotions
    # cost identical accuracy, and always demoting the same layer drives
    # it to min_bits while the rest stay wide — an unbalanced assignment
    # that refines poorly. Among near-best candidates (within
    # ``tie_epsilon``) we demote the *widest* layer, and among equally
    # wide ones the largest, which progresses the budget fastest.
    tie_epsilon = 0.005
    layer_bits = {name: config.max_bits for name in filter_counts}
    accuracy = accuracy_of(layer_bits)
    while avg_of(layer_bits) > config.target_avg_bits:
        candidates: List[Tuple[float, str]] = []
        for name in layer_bits:
            if layer_bits[name] <= config.min_bits:
                continue
            trial = dict(layer_bits)
            trial[name] -= 1
            candidates.append((accuracy_of(trial), name))
        if not candidates:
            break  # every layer at min_bits; budget unreachable
        best_accuracy = max(acc for acc, _name in candidates)
        tied = [name for acc, name in candidates if acc >= best_accuracy - tie_epsilon]
        best_name = max(tied, key=lambda n: (layer_bits[n], filter_counts[n]))
        layer_bits[best_name] -= 1
        accuracy = best_accuracy
    return layer_bits, accuracy


def _anneal_allocate(accuracy_of, avg_of, filter_counts, config) -> Tuple[Dict[str, int], float]:
    rng = np.random.default_rng(config.seed)
    names = list(filter_counts)

    # Start from a feasible point: demote the widest layers until the
    # budget holds (accuracy-blind, annealing repairs the choice).
    layer_bits = {name: config.max_bits for name in names}
    while avg_of(layer_bits) > config.target_avg_bits:
        widest = max(names, key=lambda n: layer_bits[n])
        if layer_bits[widest] <= config.min_bits:
            break
        layer_bits[widest] -= 1

    accuracy = accuracy_of(layer_bits)
    best_bits, best_accuracy = dict(layer_bits), accuracy
    temperature = config.anneal_initial_temperature
    cooling = 0.97

    for _iteration in range(config.anneal_iterations):
        # Move: demote one layer, promote another (keeps the budget
        # roughly stationary; infeasible proposals are discarded).
        down = rng.choice(names)
        up = rng.choice(names)
        proposal = dict(layer_bits)
        proposal[down] = max(config.min_bits, proposal[down] - 1)
        proposal[up] = min(config.max_bits, proposal[up] + 1)
        if proposal == layer_bits or avg_of(proposal) > config.target_avg_bits:
            continue
        candidate_accuracy = accuracy_of(proposal)
        delta = candidate_accuracy - accuracy
        if delta >= 0 or rng.random() < np.exp(delta / max(temperature, 1e-9)):
            layer_bits, accuracy = proposal, candidate_accuracy
            if accuracy > best_accuracy:
                best_bits, best_accuracy = dict(layer_bits), accuracy
        temperature *= cooling

    return best_bits, best_accuracy


def train_layerwise_baseline(
    model: Module,
    dataset,
    config: LayerwiseConfig,
    cq_config: Optional[CQConfig] = None,
    use_distillation: bool = True,
) -> LayerwiseBaselineResult:
    """Search layer-level bit-widths, quantize and refine with CQ's recipe."""
    cfg = cq_config if cq_config is not None else CQConfig()
    search = search_layerwise_bits(
        model, dataset, config, search_batch_size=cfg.search_batch_size
    )

    student = clone_module(model)
    quantize_model(student, max_bits=config.max_bits, act_bits=config.act_bits)
    apply_bit_map(student, search.bit_map)
    calibration = dataset.train_images[: cfg.search_batch_size]
    if config.act_bits is not None:
        calibrate_activations(student, [calibration])
    reestimate_batchnorm_stats(student, [calibration], passes=10)

    test_loader = DataLoader(
        ArrayDataset(dataset.test_images, dataset.test_labels),
        batch_size=cfg.refine_batch_size,
    )
    before = evaluate_model(student, test_loader, accuracy_only=True).accuracy
    history = (
        refine_quantized_model(
            student,
            teacher=model if use_distillation else None,
            train_dataset=ArrayDataset(dataset.train_images, dataset.train_labels),
            val_dataset=ArrayDataset(dataset.val_images, dataset.val_labels),
            config=cfg,
        )
        if cfg.refine_epochs > 0
        else History()
    )
    after = evaluate_model(student, test_loader, accuracy_only=True).accuracy
    return LayerwiseBaselineResult(
        model=student,
        search=search,
        accuracy_before_refine=before,
        accuracy_after_refine=after,
        refine_history=history,
    )
