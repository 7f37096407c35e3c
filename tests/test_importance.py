"""Tests for the class-based importance scores (eqs. 4-8).

Includes a hand-constructed network where the class-specific critical
pathways are known exactly, verifying that the Taylor score recovers
them.
"""

from collections import OrderedDict

import numpy as np
import pytest

from repro.core.importance import (
    ImportanceResult,
    ImportanceScorer,
    neuron_scores_to_filter_scores,
)
from repro.models.mlp import MLP
from repro.nn import Linear, Module, ReLU


class TwoPathNet(Module):
    """Hand-wired net: hidden unit 0 feeds only class 0, unit 1 only
    class 1, unit 2 feeds both, unit 3 feeds neither (prunable)."""

    def __init__(self):
        super().__init__()
        self.fc_in = Linear(2, 4, bias=False, rng=np.random.default_rng(0))
        self.relu_in = ReLU()
        self.fc_mid = Linear(4, 4, bias=False, rng=np.random.default_rng(1))
        self.relu_mid = ReLU()
        self.fc_out = Linear(4, 2, bias=False, rng=np.random.default_rng(2))
        # Input -> hidden: make all hidden units see positive input.
        self.fc_in.weight.data[...] = np.abs(self.fc_in.weight.data) + 0.5
        # Hidden mid layer: identity so paths stay separated.
        self.fc_mid.weight.data[...] = np.eye(4)
        # Hidden -> output wiring defining the pathways.
        self.fc_out.weight.data[...] = np.array(
            [
                [1.0, 0.0, 1.0, 0.0],  # class 0 reads units 0 and 2
                [0.0, 1.0, 1.0, 0.0],  # class 1 reads units 1 and 2
            ]
        )

    def forward(self, x):
        return self.fc_out(self.relu_mid(self.fc_mid(self.relu_in(self.fc_in(x)))))

    def tap_modules(self):
        return OrderedDict([("fc_mid", self.relu_mid)])


class TestKnownPathways:
    @pytest.fixture
    def scored(self):
        model = TwoPathNet()
        rng = np.random.default_rng(5)
        batches = {
            0: np.abs(rng.standard_normal((8, 2))) + 0.1,
            1: np.abs(rng.standard_normal((8, 2))) + 0.1,
        }
        return ImportanceScorer(model).score(batches)

    def test_unit0_only_class0(self, scored):
        beta = scored.beta["fc_mid"]  # (num_classes, 4)
        assert beta[0, 0] == pytest.approx(1.0)
        assert beta[1, 0] == pytest.approx(0.0)

    def test_unit1_only_class1(self, scored):
        beta = scored.beta["fc_mid"]
        assert beta[0, 1] == pytest.approx(0.0)
        assert beta[1, 1] == pytest.approx(1.0)

    def test_unit2_both_classes(self, scored):
        gamma = scored.neuron_scores["fc_mid"]
        assert gamma[2] == pytest.approx(2.0)

    def test_unit3_no_class(self, scored):
        gamma = scored.neuron_scores["fc_mid"]
        assert gamma[3] == pytest.approx(0.0)

    def test_gamma_is_sum_of_beta(self, scored):
        np.testing.assert_allclose(
            scored.neuron_scores["fc_mid"], scored.beta["fc_mid"].sum(axis=0)
        )


class TestScorerMechanics:
    def make_mlp_and_batches(self, num_classes=3):
        model = MLP(10, (8, 6), num_classes, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batches = {
            m: rng.standard_normal((5, 10)) for m in range(num_classes)
        }
        return model, batches

    def test_scores_within_class_count(self):
        model, batches = self.make_mlp_and_batches()
        result = ImportanceScorer(model).score(batches)
        for gamma in result.neuron_scores.values():
            assert np.all(gamma >= 0.0)
            assert np.all(gamma <= len(batches) + 1e-12)

    def test_num_classes_recorded(self):
        model, batches = self.make_mlp_and_batches()
        assert ImportanceScorer(model).score(batches).num_classes == 3

    def test_taps_default_from_model(self):
        model, _ = self.make_mlp_and_batches()
        scorer = ImportanceScorer(model)
        assert list(scorer.taps) == ["fc1"]

    def test_explicit_taps_override(self):
        model, batches = self.make_mlp_and_batches()
        taps = OrderedDict([("fc0", model.relu0), ("fc1", model.relu1)])
        result = ImportanceScorer(model, taps=taps).score(batches)
        assert set(result.neuron_scores) == {"fc0", "fc1"}

    def test_model_without_taps_raises(self):
        class Bare(Module):
            def forward(self, x):
                return x

        with pytest.raises(TypeError):
            ImportanceScorer(Bare())

    def test_empty_taps_raises(self):
        model, _ = self.make_mlp_and_batches()
        with pytest.raises(ValueError):
            ImportanceScorer(model, taps={})

    def test_empty_batches_raises(self):
        model, _ = self.make_mlp_and_batches()
        with pytest.raises(ValueError):
            ImportanceScorer(model).score({})

    def test_class_index_out_of_range_raises(self):
        model, batches = self.make_mlp_and_batches()
        batches[99] = batches[0]
        with pytest.raises(ValueError):
            ImportanceScorer(model).score(batches)

    def test_model_restored_to_training_mode(self):
        model, batches = self.make_mlp_and_batches()
        model.train()
        ImportanceScorer(model).score(batches)
        assert model.training

    def test_hooks_removed_after_scoring(self):
        model, batches = self.make_mlp_and_batches()
        ImportanceScorer(model).score(batches)
        assert len(model.relu1._forward_hooks) == 0

    def test_deterministic(self):
        model, batches = self.make_mlp_and_batches()
        r1 = ImportanceScorer(model).score(batches)
        r2 = ImportanceScorer(model).score(batches)
        np.testing.assert_array_equal(
            r1.neuron_scores["fc1"], r2.neuron_scores["fc1"]
        )

    def test_large_eps_zeroes_scores(self):
        model, batches = self.make_mlp_and_batches()
        result = ImportanceScorer(model, eps=1e12).score(batches)
        assert np.all(result.neuron_scores["fc1"] == 0.0)


class TestFilterReduction:
    def test_linear_passthrough(self):
        gamma = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(neuron_scores_to_filter_scores(gamma), gamma)

    def test_conv_max_over_spatial(self):
        gamma = np.zeros((2, 3, 3))
        gamma[0, 1, 2] = 5.0
        gamma[1, 0, 0] = 1.0
        np.testing.assert_array_equal(
            neuron_scores_to_filter_scores(gamma), [5.0, 1.0]
        )

    def test_reduction_returns_copy(self):
        gamma = np.array([1.0, 2.0])
        scores = neuron_scores_to_filter_scores(gamma)
        scores[0] = 99.0
        assert gamma[0] == 1.0

    def test_unsupported_shape_raises(self):
        with pytest.raises(ValueError):
            neuron_scores_to_filter_scores(np.zeros((2, 2)))

    def test_importance_result_filter_scores(self):
        result = ImportanceResult(
            neuron_scores=OrderedDict(
                [("conv", np.ones((2, 4, 4))), ("fc", np.array([3.0, 1.0]))]
            ),
            beta=OrderedDict(),
            num_classes=4,
        )
        scores = result.filter_scores()
        np.testing.assert_array_equal(scores["conv"], [1.0, 1.0])
        assert result.max_score() == 3.0


class TestConvTaps:
    def test_conv_model_scoring(self):
        """Scoring a small conv net produces per-position neuron scores."""
        from repro.models.vgg import VGGSmall

        model = VGGSmall(num_classes=3, image_size=8, width=4, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        batches = {m: rng.standard_normal((3, 3, 8, 8)) for m in range(3)}
        result = ImportanceScorer(model).score(batches)
        conv_gamma = result.neuron_scores["conv1"]
        assert conv_gamma.ndim == 3  # (C, H, W)
        assert conv_gamma.shape[0] == 8  # 2 * width filters
        filter_scores = result.filter_scores()["conv1"]
        assert filter_scores.shape == (8,)
