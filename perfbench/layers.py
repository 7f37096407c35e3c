"""Per-layer forward costs of the served VGG-small, on captured activations.

Runs the float serving model leaf by leaf over a batch of test images
to capture every leaf's real input, then times each leaf (``nn``), the
im2col of each conv (``tensor.functional``) and each integer layer spec
(``quant.integer.integer_forward``) at batch 32 and batch 1. Each
figure is the median of repeated calls.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

import numpy as np

from common import VGG_CONVS, VGG_LEAVES, VGG_QUANTIZED, median

MIN_REPEATS = 5
MIN_WALL_S = 0.02


def _median_ms(call: Callable[[], object]) -> float:
    call()  # first call pays lazy allocation
    samples = []
    started = time.perf_counter()
    while len(samples) < MIN_REPEATS or time.perf_counter() - started < MIN_WALL_S:
        begin = time.perf_counter()
        call()
        samples.append(time.perf_counter() - begin)
    return 1e3 * median(samples)


def layer_costs(artifact, images: np.ndarray) -> Dict[str, float]:
    from repro.quant.integer import integer_forward
    from repro.tensor import functional
    from repro.tensor.tensor import Tensor, no_grad

    model = artifact.model()
    leaves = model.segment_modules()
    if tuple(leaves) != VGG_LEAVES:
        raise ValueError(f"unexpected VGG leaves {tuple(leaves)}")
    specs = artifact.integer_model().specs
    if tuple(specs) != VGG_QUANTIZED:
        raise ValueError(f"unexpected integer specs {tuple(specs)}")

    batch = np.asarray(images[:32])
    if batch.shape[0] != 32:
        raise ValueError("need 32 images to capture activations")
    inputs: Dict[str, np.ndarray] = {}
    metrics: Dict[str, float] = {}
    model.eval()
    with no_grad():
        x = Tensor(batch.astype(next(iter(model.parameters())).data.dtype))
        for name, leaf in leaves.items():
            inputs[name] = x.data
            x = leaf(x)
        for name, leaf in leaves.items():
            for size in (32, 1):
                activation = Tensor(inputs[name][:size])
                metrics[f"nn.{name}.b{size}_ms"] = _median_ms(lambda: leaf(activation))
        for name in VGG_CONVS:
            conv = leaves[name]
            data = inputs[name]
            metrics[f"tensor.functional.im2col.{name}.b32_ms"] = _median_ms(
                lambda: functional.im2col(
                    data, (conv.kernel_size,) * 2, (conv.stride,) * 2, (conv.padding,) * 2
                )
            )
        for name, spec in specs.items():
            private = spec.lease_copy()
            for size in (32, 1):
                # The dtype the integer engine feeds its specs: the model's own.
                data = np.ascontiguousarray(inputs[name][:size])
                metrics[f"quant.integer.{name}.b{size}_ms"] = _median_ms(
                    lambda: integer_forward(private, data)
                )
    return metrics


def preset_layer_costs() -> Dict[str, float]:
    """Layer costs of the served preset artifact on its test images."""
    from wl_serve import build_artifact, make_rows

    return layer_costs(build_artifact(), make_rows(0)[2])
