"""Learning-rate schedulers.

The paper divides the learning rate by 10 at epochs 100, 150 and 300
(:class:`MultiStepLR` with ``gamma=0.1``), the schedule every training
and refinement run here uses.
"""

from __future__ import annotations

from typing import Sequence

from repro.optim.optimizers import Optimizer


class LRScheduler:
    """Base scheduler; call :meth:`step` once per epoch."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def get_lr(self) -> float:
        raise NotImplementedError

    def step(self) -> None:
        self.epoch += 1
        self.optimizer.lr = self.get_lr()

    @property
    def current_lr(self) -> float:
        return self.optimizer.lr


class MultiStepLR(LRScheduler):
    """Multiply the LR by ``gamma`` at each milestone epoch."""

    def __init__(self, optimizer: Optimizer, milestones: Sequence[int], gamma: float = 0.1):
        super().__init__(optimizer)
        self.milestones = sorted(milestones)
        self.gamma = gamma

    def get_lr(self) -> float:
        passed = sum(1 for milestone in self.milestones if self.epoch >= milestone)
        return self.base_lr * (self.gamma ** passed)
