"""Tests for conv/pool/softmax functional ops, including adjointness of
im2col/col2im and agreement with scipy reference implementations."""

import numpy as np
import pytest
import scipy.signal

from repro.tensor import Tensor
from repro.tensor import functional as F
from repro.tensor.functional import col2im, conv_output_size, im2col
from tests.conftest import finite_difference


def check_grad(build_loss, *params, atol=1e-6):
    loss = build_loss()
    loss.backward()
    for param in params:
        expected = finite_difference(param.data, lambda: float(build_loss().data))
        np.testing.assert_allclose(param.grad, expected, atol=atol)


class TestIm2col:
    def test_output_size_formula(self):
        assert conv_output_size(8, 3, 1, 1) == 8
        assert conv_output_size(8, 3, 2, 1) == 4
        assert conv_output_size(7, 3, 1, 0) == 5

    def test_output_size_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)

    def test_im2col_shape(self, rng):
        x = rng.standard_normal((2, 3, 8, 8))
        cols = im2col(x, (3, 3), (1, 1), (1, 1))
        assert cols.shape == (2, 27, 64)

    def test_im2col_identity_kernel(self, rng):
        x = rng.standard_normal((1, 2, 4, 4))
        cols = im2col(x, (1, 1), (1, 1), (0, 0))
        np.testing.assert_allclose(cols.reshape(1, 2, 4, 4), x)

    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        shape = (2, 3, 6, 6)
        kernel, stride, padding = (3, 3), (2, 2), (1, 1)
        x = rng.standard_normal(shape)
        cols = im2col(x, kernel, stride, padding)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * col2im(y, shape, kernel, stride, padding)).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_col2im_counts_overlaps(self):
        x = np.ones((1, 1, 3, 3))
        cols = im2col(x, (2, 2), (1, 1), (0, 0))
        back = col2im(cols, (1, 1, 3, 3), (2, 2), (1, 1), (0, 0))
        # centre pixel participates in all four 2x2 windows
        assert back[0, 0, 1, 1] == 4.0
        assert back[0, 0, 0, 0] == 1.0


class TestConv2d:
    def test_matches_scipy_correlate(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        w = rng.standard_normal((1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0)
        ref = scipy.signal.correlate2d(x[0, 0], w[0, 0], mode="valid")
        np.testing.assert_allclose(out.data[0, 0], ref, atol=1e-10)

    def test_multichannel_sums_channels(self, rng):
        x = rng.standard_normal((1, 3, 6, 6))
        w = rng.standard_normal((2, 3, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w))
        ref = np.zeros((2, 4, 4))
        for f in range(2):
            for c in range(3):
                ref[f] += scipy.signal.correlate2d(x[0, c], w[f, c], mode="valid")
        np.testing.assert_allclose(out.data[0], ref, atol=1e-10)

    def test_stride_two_shape(self, rng):
        out = F.conv2d(
            Tensor(rng.standard_normal((2, 3, 8, 8))),
            Tensor(rng.standard_normal((4, 3, 3, 3))),
            stride=2,
            padding=1,
        )
        assert out.shape == (2, 4, 4, 4)

    def test_bias_added_per_filter(self, rng):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.5, -2.0]))
        out = F.conv2d(x, w, b, padding=1)
        assert np.all(out.data[0, 0] == 1.5)
        assert np.all(out.data[0, 1] == -2.0)

    def test_channel_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.conv2d(
                Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((2, 4, 3, 3)))
            )

    def test_gradients_all_inputs(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.2, requires_grad=True)
        b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
        check_grad(
            lambda: (F.conv2d(x, w, b, stride=1, padding=1) ** 2).sum(), x, w, b,
            atol=1e-5,
        )

    def test_gradients_strided(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 3, 3)) * 0.2, requires_grad=True)
        check_grad(
            lambda: (F.conv2d(x, w, stride=2, padding=0) ** 2).sum(), x, w,
            atol=1e-5,
        )

    def test_1x1_conv_is_channel_mix(self, rng):
        x = rng.standard_normal((1, 3, 4, 4))
        w = rng.standard_normal((2, 3, 1, 1))
        out = F.conv2d(Tensor(x), Tensor(w))
        ref = np.einsum("fc,nchw->nfhw", w[:, :, 0, 0], x)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)


class TestPooling:
    def test_max_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2)
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_grad_routes_to_argmax(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_array_equal(x.grad[0, 0], expected)

    def test_max_pool_stride_differs_from_kernel(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 5, 5)))
        out = F.max_pool2d(x, 3, stride=1)
        assert out.shape == (1, 1, 3, 3)

    def test_max_pool_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        check_grad(lambda: (F.max_pool2d(x, 2) ** 2).sum(), x)

    def test_avg_pool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avg_pool_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)), requires_grad=True)
        check_grad(lambda: (F.avg_pool2d(x, 2) ** 2).sum(), x)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))


class TestLinear:
    def test_linear_values(self, rng):
        x = rng.standard_normal((4, 5))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out.data, x @ w.T + b, atol=1e-12)

    def test_linear_no_bias(self, rng):
        x = rng.standard_normal((2, 3))
        w = rng.standard_normal((4, 3))
        out = F.linear(Tensor(x), Tensor(w))
        np.testing.assert_allclose(out.data, x @ w.T)


class TestSoftmaxFamily:
    def test_softmax_sums_to_one(self, rng):
        out = F.softmax(Tensor(rng.standard_normal((5, 7))))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5))

    def test_softmax_matches_scipy(self, rng):
        from scipy.special import softmax as scipy_softmax

        x = rng.standard_normal((3, 6))
        np.testing.assert_allclose(
            F.softmax(Tensor(x)).data, scipy_softmax(x, axis=1), atol=1e-12
        )

    def test_softmax_stable_for_large_logits(self):
        out = F.softmax(Tensor(np.array([[1000.0, 1000.0]])))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = rng.standard_normal((4, 5))
        np.testing.assert_allclose(
            F.log_softmax(Tensor(x)).data,
            np.log(F.softmax(Tensor(x)).data),
            atol=1e-12,
        )

    def test_log_softmax_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grad(lambda: (F.log_softmax(x) ** 2).sum(), x, atol=1e-5)

    def test_softmax_gradcheck(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        check_grad(lambda: (F.softmax(x) ** 2).sum(), x, atol=1e-6)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = F.cross_entropy(logits, np.array([0, 3]))
        assert float(loss.data) == pytest.approx(np.log(4.0))

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert float(loss.data) < 1e-10

    def test_cross_entropy_label_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0]))

    def test_cross_entropy_gradient_is_softmax_minus_onehot(self, rng):
        x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        labels = np.array([0, 1, 2, 1])
        F.cross_entropy(x, labels).backward()
        probs = F.softmax(Tensor(x.data)).data
        expected = (probs - np.eye(3)[labels]) / 4
        np.testing.assert_allclose(x.grad, expected, atol=1e-12)


class TestKLDivergence:
    def test_zero_when_identical(self, rng):
        logits = Tensor(rng.standard_normal((4, 6)))
        kl = F.kl_divergence(logits, Tensor(logits.data.copy()))
        assert float(kl.data) == pytest.approx(0.0, abs=1e-12)

    def test_non_negative(self, rng):
        for _ in range(5):
            t = Tensor(rng.standard_normal((3, 5)))
            s = Tensor(rng.standard_normal((3, 5)))
            assert float(F.kl_divergence(t, s).data) >= 0.0

    def test_teacher_receives_no_gradient(self, rng):
        t = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        s = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
        F.kl_divergence(t, s).backward()
        assert t.grad is None
        assert s.grad is not None

    def test_matches_scipy_rel_entr(self, rng):
        from scipy.special import rel_entr, softmax as scipy_softmax

        t = rng.standard_normal((3, 5))
        s = rng.standard_normal((3, 5))
        expected = (
            rel_entr(scipy_softmax(t, axis=1), scipy_softmax(s, axis=1))
            .sum(axis=1)
            .mean()
        )
        actual = float(F.kl_divergence(Tensor(t), Tensor(s)).data)
        assert actual == pytest.approx(expected, rel=1e-10)

    def test_temperature_scaling(self, rng):
        t = Tensor(rng.standard_normal((3, 5)))
        s = Tensor(rng.standard_normal((3, 5)))
        kl_t1 = float(F.kl_divergence(t, s, temperature=1.0).data)
        kl_t4 = float(F.kl_divergence(t, s, temperature=4.0).data)
        assert kl_t1 != pytest.approx(kl_t4)


class TestMiscFunctional:

    def test_accuracy_perfect(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert F.accuracy(logits, np.array([0, 1])) == 1.0

    def test_accuracy_half(self):
        logits = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert F.accuracy(logits, np.array([0, 1])) == 0.5

    def test_accuracy_accepts_tensor(self):
        logits = Tensor(np.array([[1.0, 0.0]]))
        assert F.accuracy(logits, np.array([0])) == 1.0

    def test_dropout_eval_is_identity(self, rng):
        x = Tensor(rng.standard_normal(100))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_dropout_zero_p_is_identity(self, rng):
        x = Tensor(rng.standard_normal(10))
        assert F.dropout(x, 0.0, training=True) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(20000))
        out = F.dropout(x, 0.3, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_dropout_invalid_p_raises(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)
