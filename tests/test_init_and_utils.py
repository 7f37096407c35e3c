"""Tests for weight initialisers (repro.nn.init) and misc utilities."""

import numpy as np
import pytest

from repro.nn import init
from repro.nn.layers import Linear
from repro.utils.misc import clone_module, set_global_seed


class TestFanInOut:
    def test_linear_shape(self):
        assert init._fan_in_out((8, 3)) == (3, 8)

    def test_conv_shape(self):
        # (out=16, in=4, k=3x3): fan_in = 4*9, fan_out = 16*9.
        assert init._fan_in_out((16, 4, 3, 3)) == (36, 144)

    def test_unsupported_shape_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            init._fan_in_out((4,))


class TestInitializers:
    @pytest.mark.parametrize(
        "fn", [init.kaiming_normal, init.kaiming_uniform]
    )
    def test_deterministic_given_seed(self, fn):
        a = fn((16, 8), np.random.default_rng(7))
        b = fn((16, 8), np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_kaiming_normal_std_scaling(self):
        rng = np.random.default_rng(0)
        weights = init.kaiming_normal((2000, 50), rng)
        expected_std = np.sqrt(2.0 / 50)
        assert weights.std() == pytest.approx(expected_std, rel=0.05)

    def test_kaiming_uniform_bound(self):
        rng = np.random.default_rng(0)
        weights = init.kaiming_uniform((200, 50), rng)
        bound = np.sqrt(2.0) * np.sqrt(3.0 / 50)
        assert np.abs(weights).max() <= bound

    def test_fan_out_mode_differs(self):
        rng_a, rng_b = np.random.default_rng(0), np.random.default_rng(0)
        fan_in = init.kaiming_normal((100, 25), rng_a, mode="fan_in")
        fan_out = init.kaiming_normal((100, 25), rng_b, mode="fan_out")
        # Same draws, different scale (fan 25 vs 100).
        assert fan_in.std() > fan_out.std()

    def test_bias_bound_follows_fan_in(self):
        rng = np.random.default_rng(0)
        bias = init.uniform_bias((8, 16), rng)
        assert bias.shape == (8,)
        assert np.abs(bias).max() <= 1.0 / 4.0  # 1/sqrt(16)

    def test_bias_size_override(self):
        rng = np.random.default_rng(0)
        assert init.uniform_bias((8, 16), rng, size=3).shape == (3,)


class TestMiscUtils:
    def test_set_global_seed_reproducible(self):
        gen_a = set_global_seed(123)
        draws_a = (np.random.rand(3).tolist(), gen_a.random(3).tolist())
        gen_b = set_global_seed(123)
        draws_b = (np.random.rand(3).tolist(), gen_b.random(3).tolist())
        assert draws_a == draws_b

    def test_clone_module_independent_weights(self):
        original = Linear(4, 3, rng=np.random.default_rng(0))
        clone = clone_module(original)
        clone.weight.data += 1.0
        assert not np.allclose(original.weight.data, clone.weight.data)

    def test_clone_drops_grads_and_hooks(self):
        original = Linear(4, 3, rng=np.random.default_rng(0))
        original.weight.grad = np.ones_like(original.weight.data)
        original.register_forward_hook(lambda m, out: None)
        clone = clone_module(original)
        assert clone.weight.grad is None
        assert not clone._forward_hooks
        # Original untouched.
        assert original.weight.grad is not None
        assert original._forward_hooks
