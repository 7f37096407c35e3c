"""Configuration for the CQ pipeline (paper hyper-parameters as defaults)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union


@dataclass
class CQConfig:
    """Hyper-parameters of the class-based quantization pipeline.

    Defaults follow Sec. III-C / IV of the paper: a bit-width search
    range of ``{0, ..., 4}``, first accuracy target ``T1 = 50%`` with
    decay ``R = 0.8``, importance threshold ``eps = 1e-50`` and
    distillation weight ``alpha = 0.3``.
    """

    # --- budget -------------------------------------------------------
    target_avg_bits: float = 2.0
    """Desired average weight bit-width ``B`` (e.g. 2.0 for the 2.0/2.0 setting)."""

    max_bits: int = 4
    """Highest bit-width ``N``; the search range is ``{0, ..., N}``."""

    act_bits: Optional[int] = 2
    """Model-level activation bit-width; ``None`` keeps activations FP."""

    # --- importance scoring (Sec. III-A/B) -----------------------------
    eps: float = 1e-50
    """Critical-pathway threshold on the Taylor score (``s > eps``)."""

    samples_per_class: int = 16
    """Validation images per class used to estimate ``beta`` (eq. 6)."""

    # --- threshold search (Sec. III-C) ----------------------------------
    step: Optional[float] = None
    """Threshold step ``D`` on the importance-score axis. ``None`` (the
    default) auto-scales to ``max_score / 40`` so the search cost is
    independent of the number of classes (the score axis spans
    ``[0, M]``)."""

    t1: float = 0.5
    """First accuracy target ``T1`` (fraction, not percent)."""

    t1_relative: bool = True
    """If True, ``T_1 = t1 * accuracy(initial model)`` — the paper's
    absolute 50% target presumes a ~94%-accurate CIFAR-10 model; scaling
    by the starting accuracy keeps the same pruning pressure on models
    of any quality (set False for the paper's absolute semantics)."""

    decay: float = 0.8
    """Accuracy-target decay ``R`` (``T_k = T_{k-1} * R``)."""

    search_batch_size: int = 200
    """Validation images used for each accuracy evaluation in the search."""

    # --- refining (Sec. III-D) ------------------------------------------
    alpha: float = 0.3
    """Cross-entropy weight in the distillation loss (eq. 10)."""

    temperature: float = 1.0
    """Distillation softmax temperature."""

    refine_epochs: int = 10
    """Fine-tuning epochs after quantization."""

    refine_lr: float = 0.01
    """Refining learning rate."""

    refine_momentum: float = 0.9
    refine_weight_decay: float = 1e-4
    refine_batch_size: int = 100

    refine_max_grad_norm: Union[float, str, None] = "auto"
    """Gradient clipping during refinement: a float clips to that global
    L2 norm, ``"auto"`` (the default) clips at 10x the running median
    norm, ``None`` disables. Heavily quantized students (1-bit layers)
    occasionally diverge under the distillation loss, and healthy norm
    scales vary by orders of magnitude across arrangements (CQ students
    train at norms of 100-600 where a layer-wise student's escalation
    begins), so the scale-free adaptive clip is the default."""

    seed: int = 0
    """Seed for data shuffling during refinement."""

    def __post_init__(self):
        if self.max_bits < 1:
            raise ValueError(f"max_bits must be >= 1, got {self.max_bits}")
        if not 0 < self.t1 <= 1:
            raise ValueError(f"t1 must be in (0, 1], got {self.t1}")
        if not 0 <= self.decay <= 1:
            raise ValueError(f"decay must be in [0, 1], got {self.decay}")
        if self.step is not None and self.step <= 0:
            raise ValueError(f"step must be positive, got {self.step}")
        if self.target_avg_bits < 0 or self.target_avg_bits > self.max_bits:
            raise ValueError(
                f"target_avg_bits must lie in [0, {self.max_bits}], got "
                f"{self.target_avg_bits}"
            )
        if not 0 <= self.alpha <= 1:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("samples_per_class", "search_batch_size", "refine_batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.temperature > 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        clip = self.refine_max_grad_norm
        if clip is not None and clip != "auto":
            if not isinstance(clip, (int, float)) or clip <= 0:
                raise ValueError(
                    f'refine_max_grad_norm must be a positive number, "auto" '
                    f"or None, got {clip!r}"
                )
