"""Unit tests for the autograd engine: every op's gradient is checked
against central finite differences, plus graph-shape and mode tests."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled, tensor, zeros, ones, arange
from tests.conftest import finite_difference


def check_grad(build_loss, *params, atol=1e-6):
    """Assert autograd gradient == finite-difference gradient for each param."""
    loss = build_loss()
    loss.backward()
    for param in params:
        assert param.grad is not None, "parameter received no gradient"
        expected = finite_difference(param.data, lambda: float(build_loss().data))
        np.testing.assert_allclose(param.grad, expected, atol=atol)


class TestConstruction:
    def test_tensor_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.dtype == np.float64

    def test_integer_data_promoted_to_float(self):
        t = Tensor(np.array([1, 2, 3]))
        assert t.dtype == np.float64

    def test_bool_data_promoted_to_float(self):
        t = Tensor(np.array([True, False]))
        assert t.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_constructors(self):
        assert zeros(2, 3).shape == (2, 3)
        assert ones((4,)).data.sum() == 4.0
        assert arange(5).shape == (5,)

    def test_item_scalar(self):
        assert Tensor([[2.5]]).item() == 2.5

    def test_item_non_scalar_raises(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).item()

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2).detach()
        assert not b.requires_grad
        assert b._backward is None

    def test_len_and_repr(self):
        t = Tensor([1.0, 2.0])
        assert len(t) == 2
        assert "Tensor" in repr(t)


class TestElementwiseGradients:
    def test_add(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grad(lambda: (a + b).sum(), a, b)

    def test_add_broadcast_rows(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4,)), requires_grad=True)
        check_grad(lambda: (a + b).sum(), a, b)

    def test_add_broadcast_scalar_shape(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((1, 1)), requires_grad=True)
        check_grad(lambda: (a + b).sum(), a, b)

    def test_sub(self, rng):
        a = Tensor(rng.standard_normal(5), requires_grad=True)
        b = Tensor(rng.standard_normal(5), requires_grad=True)
        check_grad(lambda: (a - b).sum(), a, b)

    def test_rsub(self, rng):
        a = Tensor(rng.standard_normal(5), requires_grad=True)
        check_grad(lambda: (3.0 - a).sum(), a)

    def test_mul(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        check_grad(lambda: (a * b).sum(), a, b)

    def test_mul_broadcast(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((3,)), requires_grad=True)
        check_grad(lambda: (a * b).sum(), a, b)

    def test_div(self, rng):
        a = Tensor(rng.standard_normal((3,)), requires_grad=True)
        b = Tensor(rng.uniform(0.5, 2.0, 3), requires_grad=True)
        check_grad(lambda: (a / b).sum(), a, b)

    def test_rdiv(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, 4), requires_grad=True)
        check_grad(lambda: (1.0 / a).sum(), a)

    def test_neg(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        check_grad(lambda: (-a).sum(), a)

    def test_pow(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, 4), requires_grad=True)
        check_grad(lambda: (a ** 3).sum(), a)

    def test_pow_negative_exponent(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, 4), requires_grad=True)
        check_grad(lambda: (a ** -0.5).sum(), a, atol=1e-5)

    def test_pow_non_scalar_raises(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])


class TestUnaryGradients:
    def test_exp(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        check_grad(lambda: a.exp().sum(), a, atol=1e-5)

    def test_log(self, rng):
        a = Tensor(rng.uniform(0.5, 3.0, 4), requires_grad=True)
        check_grad(lambda: a.log().sum(), a)

    def test_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 3.0, 4), requires_grad=True)
        check_grad(lambda: a.sqrt().sum(), a)

    def test_abs(self, rng):
        a = Tensor(rng.standard_normal(6) + 0.5, requires_grad=True)
        check_grad(lambda: a.abs().sum(), a)

    def test_tanh(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        check_grad(lambda: a.tanh().sum(), a)

    def test_sigmoid(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        check_grad(lambda: a.sigmoid().sum(), a)

    def test_relu_values(self):
        a = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(a.relu().data, [0.0, 0.0, 2.0])

    def test_relu_grad_zero_in_negative_region(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        a.relu().sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0])

    def test_clip_gradient_masks_outside(self):
        a = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        a.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(a.grad, [0.0, 1.0, 0.0])

    def test_clip_values(self):
        a = Tensor([-2.0, 0.5, 2.0])
        np.testing.assert_array_equal(a.clip(-1.0, 1.0).data, [-1.0, 0.5, 1.0])


class TestReductionGradients:
    def test_sum_all(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grad(lambda: a.sum(), a)

    def test_sum_axis(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grad(lambda: (a.sum(axis=0) ** 2).sum(), a)

    def test_sum_axis_keepdims(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grad(lambda: (a.sum(axis=1, keepdims=True) ** 2).sum(), a)

    def test_sum_tuple_axis(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        check_grad(lambda: (a.sum(axis=(0, 2)) ** 2).sum(), a)

    def test_mean_all(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grad(lambda: a.mean() * 7.0, a)

    def test_mean_axis(self, rng):
        a = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        check_grad(lambda: (a.mean(axis=1) ** 2).sum(), a)

    def test_max_all(self, rng):
        a = Tensor(rng.standard_normal(10), requires_grad=True)
        check_grad(lambda: a.max() * 2.0, a)

    def test_max_axis(self, rng):
        a = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        check_grad(lambda: (a.max(axis=1) ** 2).sum(), a)

    def test_max_ties_split_gradient(self):
        a = Tensor([3.0, 3.0, 1.0], requires_grad=True)
        a.max().backward()
        np.testing.assert_allclose(a.grad, [0.5, 0.5, 0.0])

    def test_min(self, rng):
        a = Tensor(rng.standard_normal(6), requires_grad=True)
        out = a.min()
        assert float(out.data) == pytest.approx(a.data.min())

    def test_var_matches_numpy(self, rng):
        data = rng.standard_normal((4, 6))
        a = Tensor(data)
        np.testing.assert_allclose(a.var(axis=0).data, data.var(axis=0))

    def test_var_gradient(self, rng):
        a = Tensor(rng.standard_normal(5), requires_grad=True)
        check_grad(lambda: a.var() * 3.0, a)


class TestShapeOps:
    def test_reshape_roundtrip_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        check_grad(lambda: (a.reshape(3, 4) ** 2).sum(), a)

    def test_reshape_with_tuple(self):
        a = Tensor(np.zeros((2, 6)))
        assert a.reshape((4, 3)).shape == (4, 3)

    def test_flatten_keeps_batch(self):
        a = Tensor(np.zeros((5, 2, 3, 4)))
        assert a.flatten().shape == (5, 24)

    def test_transpose_default_reverses(self, rng):
        a = Tensor(rng.standard_normal((2, 3, 4)))
        assert a.transpose().shape == (4, 3, 2)

    def test_transpose_grad(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        check_grad(lambda: (a.T ** 2).sum(), a)

    def test_getitem_int_row(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grad(lambda: (a[1] ** 2).sum(), a)

    def test_getitem_fancy_index(self, rng):
        a = Tensor(rng.standard_normal((5, 4)), requires_grad=True)
        idx = (np.array([0, 2, 2]), np.array([1, 3, 3]))
        check_grad(lambda: (a[idx] ** 2).sum(), a)

    def test_getitem_duplicate_indices_accumulate(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = a[np.array([0, 0, 1])]
        b.sum().backward()
        np.testing.assert_array_equal(a.grad, [2.0, 1.0])

    def test_pad2d_shape(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        assert a.pad2d(2).shape == (1, 2, 8, 8)

    def test_pad2d_zero_is_identity(self):
        a = Tensor(np.ones((1, 1, 2, 2)))
        assert a.pad2d(0) is a

    def test_pad2d_grad(self, rng):
        a = Tensor(rng.standard_normal((1, 1, 3, 3)), requires_grad=True)
        check_grad(lambda: (a.pad2d(1) ** 2).sum(), a)


class TestMatmul:
    def test_matmul_values(self, rng):
        a_data = rng.standard_normal((3, 4))
        b_data = rng.standard_normal((4, 2))
        out = Tensor(a_data) @ Tensor(b_data)
        np.testing.assert_allclose(out.data, a_data @ b_data)

    def test_matmul_grads(self, rng):
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        check_grad(lambda: ((a @ b) ** 2).sum(), a, b)

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)) @ Tensor(np.zeros((3, 2)))


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self, rng):
        a = Tensor(rng.standard_normal(4), requires_grad=True)
        b = a * 2.0
        c = a * 3.0
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(4, 5.0))

    def test_reused_tensor_many_times(self):
        a = Tensor([2.0], requires_grad=True)
        loss = a * a * a  # a^3
        loss.backward()
        np.testing.assert_allclose(a.grad, [12.0])

    def test_backward_accumulates_across_calls(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        (a * 2).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_backward_nonscalar_requires_grad_arg(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 3.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(a.grad, [3.0, 30.0])

    def test_backward_grad_shape_mismatch(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (a * 3.0).backward(np.zeros(3))

    def test_intermediate_grads_retained(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2.0
        c = b * 3.0
        c.backward()
        np.testing.assert_allclose(b.grad, [3.0])

    def test_long_chain(self, rng):
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        x = a
        for _ in range(50):
            x = x * 1.01
        x.sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 1.01 ** 50), rtol=1e-10)

    def test_no_grad_disables_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2.0
        assert not b.requires_grad
        assert b._backward is None

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested(self):
        with no_grad():
            with no_grad():
                pass
            assert not is_grad_enabled()

    def test_grad_not_tracked_for_constants(self):
        a = Tensor([1.0], requires_grad=True)
        b = Tensor([5.0])
        (a * b).sum().backward()
        assert b.grad is None

    def test_identity_op(self):
        a = Tensor([1.0], requires_grad=True)
        b = a.retain_graph_identity()
        b.sum().backward()
        np.testing.assert_allclose(a.grad, [1.0])

    def test_comparison_returns_numpy(self):
        a = Tensor([1.0, 3.0])
        result = a > 2.0
        assert isinstance(result, np.ndarray)
        np.testing.assert_array_equal(result, [False, True])
