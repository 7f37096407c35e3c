"""Loss modules for training and for the CQ refining phase (eq. 10)."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.module import Module
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor


class CrossEntropyLoss(Module):
    """Mean cross-entropy over integer class labels."""

    def forward(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, labels)


class DistillationLoss(Module):
    """The refining loss of eq. (10): ``alpha * CE + (1 - alpha) * KL``.

    ``alpha`` weights the hard-label cross-entropy of the quantized
    (student) network; ``1 - alpha`` weights the KL divergence between
    the full-precision teacher's distribution and the student's. The
    paper uses ``alpha = 0.3``.
    """

    def __init__(self, alpha: float = 0.3, temperature: float = 1.0):
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.temperature = temperature

    def forward(
        self,
        student_logits: Tensor,
        labels: np.ndarray,
        teacher_logits: Optional[Tensor] = None,
    ) -> Tensor:
        ce = F.cross_entropy(student_logits, labels)
        if teacher_logits is None or self.alpha >= 1.0:
            return ce
        kl = F.kl_divergence(teacher_logits, student_logits, self.temperature)
        return ce * self.alpha + kl * (1.0 - self.alpha)
