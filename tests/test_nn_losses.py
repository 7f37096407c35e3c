"""Tests for loss modules, in particular the refining loss of eq. (10)."""

import numpy as np
import pytest

from repro.nn import CrossEntropyLoss, DistillationLoss
from repro.tensor import Tensor
from repro.tensor import functional as F


class TestCrossEntropyLoss:
    def test_matches_functional(self, rng):
        logits = Tensor(rng.standard_normal((4, 5)))
        labels = np.array([0, 1, 2, 3])
        module_loss = CrossEntropyLoss()(logits, labels)
        functional_loss = F.cross_entropy(logits, labels)
        assert float(module_loss.data) == pytest.approx(float(functional_loss.data))


class TestDistillationLoss:
    def test_alpha_one_is_pure_ce(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)))
        teacher = Tensor(rng.standard_normal((4, 3)))
        labels = np.array([0, 1, 2, 0])
        loss = DistillationLoss(alpha=1.0)(logits, labels, teacher)
        ce = F.cross_entropy(logits, labels)
        assert float(loss.data) == pytest.approx(float(ce.data))

    def test_alpha_zero_is_pure_kl(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)))
        teacher = Tensor(rng.standard_normal((4, 3)))
        labels = np.array([0, 1, 2, 0])
        loss = DistillationLoss(alpha=0.0)(logits, labels, teacher)
        kl = F.kl_divergence(teacher, logits)
        assert float(loss.data) == pytest.approx(float(kl.data))

    def test_convex_combination(self, rng):
        logits = Tensor(rng.standard_normal((4, 3)))
        teacher = Tensor(rng.standard_normal((4, 3)))
        labels = np.array([0, 1, 2, 0])
        alpha = 0.3
        loss = DistillationLoss(alpha=alpha)(logits, labels, teacher)
        expected = alpha * float(F.cross_entropy(logits, labels).data) + (
            1 - alpha
        ) * float(F.kl_divergence(teacher, logits).data)
        assert float(loss.data) == pytest.approx(expected)

    def test_without_teacher_falls_back_to_ce(self, rng):
        logits = Tensor(rng.standard_normal((2, 3)))
        labels = np.array([0, 1])
        loss = DistillationLoss(alpha=0.3)(logits, labels, None)
        assert float(loss.data) == pytest.approx(
            float(F.cross_entropy(logits, labels).data)
        )

    def test_invalid_alpha_raises(self):
        with pytest.raises(ValueError):
            DistillationLoss(alpha=1.5)

    def test_gradient_reaches_student_not_teacher(self, rng):
        student = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        teacher = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        labels = np.array([0, 1, 2])
        DistillationLoss(alpha=0.3)(student, labels, teacher).backward()
        assert student.grad is not None
        assert teacher.grad is None

    def test_paper_default_alpha(self):
        assert DistillationLoss().alpha == pytest.approx(0.3)
