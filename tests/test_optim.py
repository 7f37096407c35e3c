"""Tests for optimisers (exact update rules) and LR schedulers."""

import numpy as np
import pytest

from repro.nn import Parameter
from repro.optim import SGD, Adam, MultiStepLR


def make_param(value=1.0, grad=0.5):
    param = Parameter(np.array([value]))
    param.grad = np.array([grad])
    return param


class TestSGD:
    def test_plain_update(self):
        param = make_param(1.0, 0.5)
        SGD([param], lr=0.1).step()
        assert param.data[0] == pytest.approx(1.0 - 0.1 * 0.5)

    def test_weight_decay_adds_to_gradient(self):
        param = make_param(2.0, 0.0)
        SGD([param], lr=0.1, weight_decay=0.1).step()
        assert param.data[0] == pytest.approx(2.0 - 0.1 * (0.1 * 2.0))

    def test_momentum_accumulates(self):
        param = make_param(0.0, 1.0)
        opt = SGD([param], lr=1.0, momentum=0.9)
        opt.step()  # v=1, x=-1
        param.grad = np.array([1.0])
        opt.step()  # v=1.9, x=-2.9
        assert param.data[0] == pytest.approx(-2.9)

    def test_momentum_matches_torch_semantics(self):
        """v = mu*v + g; x -= lr*v (PyTorch convention, lr outside v)."""
        param = make_param(0.0, 1.0)
        opt = SGD([param], lr=0.1, momentum=0.5)
        for _ in range(3):
            param.grad = np.array([1.0])
            opt.step()
        # v1=1, v2=1.5, v3=1.75 -> x = -0.1*(1+1.5+1.75)
        assert param.data[0] == pytest.approx(-0.425)

    def test_nesterov_lookahead(self):
        param = make_param(0.0, 1.0)
        opt = SGD([param], lr=1.0, momentum=0.9, nesterov=True)
        opt.step()
        # v=1; update = g + mu*v = 1.9
        assert param.data[0] == pytest.approx(-1.9)

    def test_nesterov_without_momentum_raises(self):
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.1, nesterov=True)

    def test_skips_params_without_grad(self):
        param = Parameter(np.array([1.0]))
        SGD([param], lr=0.1).step()
        assert param.data[0] == 1.0

    def test_zero_grad(self):
        param = make_param()
        opt = SGD([param], lr=0.1)
        opt.zero_grad()
        assert param.grad is None

    def test_empty_params_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_bad_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.0)

    def test_negative_momentum_raises(self):
        with pytest.raises(ValueError):
            SGD([make_param()], lr=0.1, momentum=-0.5)


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        param = make_param(0.0, 100.0)
        Adam([param], lr=0.001).step()
        # bias-corrected first step has magnitude ~lr regardless of grad scale
        assert abs(param.data[0]) == pytest.approx(0.001, rel=1e-3)

    def test_converges_on_quadratic(self):
        param = Parameter(np.array([5.0]))
        opt = Adam([param], lr=0.2)
        for _ in range(200):
            param.grad = 2 * param.data  # d/dx x^2
            opt.step()
        assert abs(param.data[0]) < 0.05

    def test_weight_decay_applied(self):
        p_decay = make_param(1.0, 0.0)
        Adam([p_decay], lr=0.01, weight_decay=0.5).step()
        assert p_decay.data[0] < 1.0


class TestSchedulers:
    def test_multistep_drops_at_milestones(self):
        param = make_param()
        opt = SGD([param], lr=1.0)
        sched = MultiStepLR(opt, milestones=[2, 4], gamma=0.1)
        lrs = []
        for _ in range(5):
            sched.step()
            lrs.append(opt.lr)
        assert lrs == pytest.approx([1.0, 0.1, 0.1, 0.01, 0.01])

    def test_current_lr_property(self):
        opt = SGD([make_param()], lr=0.3)
        sched = MultiStepLR(opt, milestones=[1])
        assert sched.current_lr == 0.3
