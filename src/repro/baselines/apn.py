"""Any-Precision Networks (APN) baseline [12] (Yu et al., AAAI 2021).

APN trains a single model whose weights are shared across several
quantization precisions. The three ingredients re-implemented here, as
described in the original paper:

1. **Model-level uniform quantization** of weights and activations at
   each supported precision (all filters of a layer share the
   bit-width — this is exactly the granularity gap CQ exploits).
2. **Switchable batch normalisation**: one set of BN statistics and
   affine parameters per precision, selected at run time.
3. **Joint training with self-distillation**: each batch is run at
   every precision; the highest precision (or the FP teacher) provides
   soft targets for the lower ones.

The evaluation entry point matches the paper's Fig. 4 protocol:
"neural networks of APN were set to individual bit-width".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.data.dataset import ArrayDataset, DataLoader
from repro.nn.layers import BatchNorm2d
from repro.nn.module import Module
from repro.optim.optimizers import SGD
from repro.optim.schedulers import MultiStepLR
from repro.quant.qmodules import (
    calibrate_activations,
    quantize_model,
    quantized_layers,
)
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from repro.train.trainer import evaluate_model
from repro.utils.misc import clone_module


class SwitchableBatchNorm2d(Module):
    """One BatchNorm2d per supported precision, selected via ``active_bits``."""

    def __init__(self, num_features: int, bit_widths: Sequence[int]):
        super().__init__()
        if not bit_widths:
            raise ValueError("bit_widths must be non-empty")
        self.num_features = num_features
        self.bit_widths = tuple(sorted(set(bit_widths)))
        for bits in self.bit_widths:
            setattr(self, f"bn_{bits}", BatchNorm2d(num_features))
        self.active_bits = self.bit_widths[-1]

    def select(self, bits: int) -> None:
        if bits not in self.bit_widths:
            raise KeyError(
                f"precision {bits} not supported; have {self.bit_widths}"
            )
        self.active_bits = bits

    def forward(self, x: Tensor) -> Tensor:
        return getattr(self, f"bn_{self.active_bits}")(x)

    def __repr__(self) -> str:
        return (
            f"SwitchableBatchNorm2d({self.num_features}, "
            f"bits={self.bit_widths}, active={self.active_bits})"
        )


class AnyPrecisionNet(Module):
    """Wraps a float model into an any-precision model.

    The wrapped model's quantizable Conv2d/Linear layers are converted
    to Q modules (model-level bit-widths) and every BatchNorm2d on the
    quantized path is replaced by a :class:`SwitchableBatchNorm2d` with
    statistics copied into each branch.
    """

    def __init__(self, model: Module, bit_widths: Sequence[int]):
        super().__init__()
        if not bit_widths:
            raise ValueError("bit_widths must be non-empty")
        self.bit_widths = tuple(sorted(set(bit_widths)))
        max_bits = self.bit_widths[-1]
        network = clone_module(model)
        quantize_model(network, max_bits=max_bits, act_bits=max_bits)
        _swap_batchnorms(network, self.bit_widths)
        self.network = network
        self.active_bits = max_bits
        self.set_precision(max_bits)

    # ------------------------------------------------------------------
    def set_precision(self, bits: int) -> None:
        """Run the model at ``bits``-bit weights and activations."""
        if bits not in self.bit_widths:
            raise KeyError(
                f"precision {bits} not supported; have {self.bit_widths}"
            )
        self.active_bits = bits
        for layer in quantized_layers(self.network).values():
            layer.set_bits(np.full(layer.num_filters, bits, dtype=np.int64))
            layer.act_bits = bits
        for module in self.network.modules():
            if isinstance(module, SwitchableBatchNorm2d):
                module.select(bits)

    def forward(self, x: Tensor) -> Tensor:
        return self.network(x)


def _swap_batchnorms(model: Module, bit_widths: Sequence[int]) -> None:
    """Replace every BatchNorm2d with a switchable one (stats copied)."""
    for name, module in list(model.named_modules()):
        for child_name, child in list(module._modules.items()):
            if isinstance(child, BatchNorm2d):
                switchable = SwitchableBatchNorm2d(child.num_features, bit_widths)
                for bits in switchable.bit_widths:
                    branch = getattr(switchable, f"bn_{bits}")
                    branch.weight.data[...] = child.weight.data
                    branch.bias.data[...] = child.bias.data
                    branch._set_buffer("running_mean", child.running_mean.copy())
                    branch._set_buffer("running_var", child.running_var.copy())
                setattr(module, child_name, switchable)


@dataclass
class APNResult:
    """Outcome of APN training: one accuracy per evaluated precision."""

    model: AnyPrecisionNet
    accuracy_by_bits: Dict[int, float]
    accuracy_fp: float


def train_apn(
    model: Module,
    dataset,
    bit_widths: Sequence[int],
    epochs: int = 10,
    lr: float = 0.01,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    batch_size: int = 100,
    alpha: float = 0.3,
    seed: int = 0,
) -> APNResult:
    """Train an any-precision network and evaluate it at each precision.

    ``model`` is a pre-trained float network; it also serves as the
    distillation teacher (APN's highest-precision guidance). Each batch
    is optimised jointly across all precisions: the FP teacher's soft
    targets regularise every precision branch, matching APN's recursive
    distillation at our two-level depth.
    """
    apn = AnyPrecisionNet(model, bit_widths)
    calibrate_activations(apn.network, [dataset.train_images[:200]])
    teacher = model
    teacher.eval()

    train_loader = DataLoader(
        ArrayDataset(dataset.train_images, dataset.train_labels),
        batch_size=batch_size,
        shuffle=True,
        seed=seed,
    )
    optimizer = SGD(
        apn.parameters(), lr=lr, momentum=momentum, weight_decay=weight_decay
    )
    scheduler = MultiStepLR(
        optimizer, milestones=[max(1, epochs // 2), max(2, (3 * epochs) // 4)], gamma=0.1
    )

    for _epoch in range(epochs):
        apn.train()
        for images, labels in train_loader:
            inputs = Tensor(images)
            with no_grad():
                teacher_logits = teacher(inputs)
            optimizer.zero_grad()
            for bits in apn.bit_widths:
                apn.set_precision(bits)
                logits = apn(inputs)
                ce = F.cross_entropy(logits, labels)
                kl = F.kl_divergence(teacher_logits, logits)
                loss = ce * alpha + kl * (1.0 - alpha)
                # Gradients accumulate across precisions (shared weights).
                loss.backward()
            optimizer.step()
        scheduler.step()

    test_loader = DataLoader(
        ArrayDataset(dataset.test_images, dataset.test_labels), batch_size=batch_size
    )
    accuracy_by_bits: Dict[int, float] = {}
    for bits in apn.bit_widths:
        apn.set_precision(bits)
        accuracy_by_bits[bits] = evaluate_model(
            apn, test_loader, accuracy_only=True
        ).accuracy
    accuracy_fp = evaluate_model(teacher, test_loader, accuracy_only=True).accuracy
    return APNResult(apn, accuracy_by_bits, accuracy_fp)
