"""Optimisers and learning-rate schedulers (the ``torch.optim`` replacement)."""

from repro.optim.optimizers import (
    SGD,
    Adam,
    AdaptiveGradClipper,
    Optimizer,
    clip_grad_norm_,
)
from repro.optim.schedulers import (
    LRScheduler,
    MultiStepLR,
)

__all__ = [
    "Adam",
    "AdaptiveGradClipper",
    "LRScheduler",
    "MultiStepLR",
    "Optimizer",
    "SGD",
    "clip_grad_norm_",
]
