"""Tests for repro.hw.profile: MAC/parameter/shape tracing."""

import numpy as np
import pytest

from repro.hw.profile import profile_model
from repro.models.mlp import MLP
from repro.models.vgg import VGGSmall
from repro.nn import Conv2d, Linear, Module, ReLU, Sequential
from repro.quant.qmodules import quantize_model


@pytest.fixture(scope="module")
def vgg_profile():
    model = VGGSmall(num_classes=4, image_size=8, width=8, rng=np.random.default_rng(0))
    return model, profile_model(model, (3, 8, 8))


class TestLinearProfiling:
    def test_linear_macs_equal_weight_count(self):
        model = MLP(in_features=12, hidden=(8, 6), num_classes=3, rng=np.random.default_rng(0))
        profile = profile_model(model, (12,))
        for name in profile:
            layer = profile[name]
            assert layer.kind == "linear"
            assert layer.macs == layer.params

    def test_mlp_layer_shapes(self):
        model = MLP(in_features=12, hidden=(8, 6), num_classes=3, rng=np.random.default_rng(0))
        profile = profile_model(model, (12,))
        shapes = [profile[name].output_shape for name in profile]
        assert shapes == [(8,), (6,), (3,)]

    def test_weights_per_filter_is_in_features(self):
        model = MLP(in_features=12, hidden=(8, 6), num_classes=3, rng=np.random.default_rng(0))
        profile = profile_model(model, (12,))
        first = profile[profile.layers()[0]]
        assert first.weights_per_filter == 12
        assert first.num_filters == 8


class TestConvProfiling:
    def test_conv_mac_formula(self):
        class Wrapper(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv2d(3, 5, 3, stride=1, padding=1, rng=np.random.default_rng(0))
                self.fc = Linear(5 * 6 * 6, 2, rng=np.random.default_rng(1))

            def forward(self, x):
                out = self.conv(x).relu()
                return self.fc(out.flatten())

        model = Wrapper()
        profile = profile_model(model, (3, 6, 6))
        conv_profile = profile["conv"]
        # padding=1, stride=1 keeps 6x6; MACs = 6*6*5 out elems * 3*3*3.
        assert conv_profile.output_shape == (5, 6, 6)
        assert conv_profile.macs == 6 * 6 * 5 * 3 * 3 * 3
        assert conv_profile.macs_per_filter == 6 * 6 * 3 * 3 * 3
        assert conv_profile.params == 5 * 3 * 3 * 3

    def test_strided_conv_shrinks_output(self):
        class Strided(Module):
            def __init__(self):
                super().__init__()
                self.conv = Conv2d(3, 4, 3, stride=2, padding=1, rng=np.random.default_rng(0))
                self.fc = Linear(4 * 16, 2, rng=np.random.default_rng(1))

            def forward(self, x):
                return self.fc(self.conv(x).flatten())

        profile = profile_model(Strided(), (3, 8, 8))
        assert profile["conv"].output_shape == (4, 4, 4)

    def test_vgg_total_params_match_weight_sizes(self, vgg_profile):
        model, profile = vgg_profile
        expected = sum(
            module.weight.size
            for name, module in model.named_modules()
            if isinstance(module, (Conv2d, Linear)) and name
        )
        assert profile.total_params == expected

    def test_conv_dominates_vgg_macs(self, vgg_profile):
        _, profile = vgg_profile
        conv_macs = sum(p.macs for p in profile.profiles() if p.kind == "conv")
        assert conv_macs > profile.total_macs / 2


class TestModelProfileContainer:
    def test_iteration_follows_forward_order(self, vgg_profile):
        model, profile = vgg_profile
        # First profiled layer must be the first conv.
        first = profile[profile.layers()[0]]
        assert first.kind == "conv"
        # Last must be the classifier head.
        last = profile[profile.layers()[-1]]
        assert last.kind == "linear"
        assert last.output_shape == (4,)

    def test_subset_preserves_order_and_totals(self, vgg_profile):
        _, profile = vgg_profile
        names = profile.layers()[1:-1]
        sub = profile.subset(names)
        assert sub.layers() == names
        assert sub.total_macs == sum(profile[n].macs for n in names)

    def test_subset_unknown_layer_raises(self, vgg_profile):
        _, profile = vgg_profile
        with pytest.raises(KeyError):
            profile.subset(("nonexistent",))

    def test_contains_and_len(self, vgg_profile):
        _, profile = vgg_profile
        assert len(profile) == len(profile.layers())
        assert profile.layers()[0] in profile
        assert "missing" not in profile

    def test_profile_deterministic(self):
        model = MLP(in_features=10, hidden=(6, 4), num_classes=2, rng=np.random.default_rng(0))
        p1 = profile_model(model, (10,))
        p2 = profile_model(model, (10,))
        assert p1.total_macs == p2.total_macs
        assert p1.layers() == p2.layers()

    def test_model_without_weight_layers_raises(self):
        with pytest.raises(ValueError, match="no Conv2d/Linear"):
            profile_model(Sequential(ReLU()), (4,))

    def test_profiling_restores_training_mode(self):
        model = MLP(in_features=10, hidden=(6, 4), num_classes=2, rng=np.random.default_rng(0))
        model.train()
        profile_model(model, (10,))
        assert model.training
        model.eval()
        profile_model(model, (10,))
        assert not model.training


class TestQuantizedModelProfiling:
    def test_quantized_model_profiles_identically(self, vgg_profile):
        _, float_profile = vgg_profile
        model = VGGSmall(num_classes=4, image_size=8, width=8, rng=np.random.default_rng(0))
        quantize_model(model, max_bits=4, act_bits=4)
        q_profile = profile_model(model, (3, 8, 8))
        assert q_profile.layers() == float_profile.layers()
        assert q_profile.total_macs == float_profile.total_macs
        assert q_profile.total_params == float_profile.total_params

    def test_weight_sharing_accumulates_calls(self):
        class SharedTwice(Module):
            def __init__(self):
                super().__init__()
                self.fc = Linear(6, 6, rng=np.random.default_rng(0))
                self.head = Linear(6, 2, rng=np.random.default_rng(1))

            def forward(self, x):
                return self.head(self.fc(self.fc(x)))

        profile = profile_model(SharedTwice(), (6,))
        shared = profile["fc"]
        assert shared.calls == 2
        assert shared.macs == 2 * 6 * 6
