"""Integration tests for the end-to-end CQ pipeline (Sec. III)."""

import numpy as np
import pytest

from repro.core import CQConfig, ClassBasedQuantizer
from repro.core.distill import refine_quantized_model
from repro.data import ArrayDataset, DataLoader
from repro.quant.qmodules import quantized_layers
from repro.train import evaluate_model


@pytest.fixture(scope="module")
def cq_result(tiny_dataset, trained_mlp):
    config = CQConfig(
        target_avg_bits=2.0,
        max_bits=4,
        act_bits=2,
        step=0.5,
        samples_per_class=8,
        refine_epochs=6,
        refine_lr=0.01,
        refine_batch_size=25,
        search_batch_size=40,
    )
    return ClassBasedQuantizer(config).quantize(trained_mlp, tiny_dataset)


class TestPipelineEndToEnd:
    def test_budget_met(self, cq_result):
        assert cq_result.average_bits <= 2.0 + 1e-9

    def test_refinement_recovers_accuracy(self, cq_result):
        assert (
            cq_result.accuracy_after_refine >= cq_result.accuracy_before_refine - 0.05
        )

    def test_final_accuracy_reasonable(self, cq_result):
        """At 2.0 bits the refined model should stay within striking
        distance of the FP model on this easy dataset."""
        assert cq_result.accuracy_after_refine >= cq_result.accuracy_fp - 0.35

    def test_teacher_is_original_model(self, cq_result, trained_mlp):
        assert cq_result.teacher is trained_mlp

    def test_teacher_unmodified(self, cq_result, trained_mlp):
        """The pipeline must not convert or mutate the input model."""
        from repro.quant import QLinear

        assert not any(
            isinstance(module, QLinear) for module in trained_mlp.modules()
        )

    def test_student_has_quantized_layers(self, cq_result):
        layers = quantized_layers(cq_result.model)
        assert set(layers) == {"fc1", "fc2"}

    def test_bit_map_matches_student_layers(self, cq_result):
        layers = quantized_layers(cq_result.model)
        for name in cq_result.bit_map.layers():
            np.testing.assert_array_equal(
                layers[name].bits, cq_result.bit_map[name]
            )

    def test_importance_scores_in_class_range(self, cq_result, tiny_dataset):
        for gamma in cq_result.importance.neuron_scores.values():
            assert np.all(gamma >= 0)
            assert np.all(gamma <= tiny_dataset.num_classes + 1e-12)

    def test_search_trace_nonempty(self, cq_result):
        assert cq_result.search.evaluations > 0

    def test_refine_history_length(self, cq_result):
        assert len(cq_result.refine_history.train) == 6

    def test_activation_observers_calibrated(self, cq_result):
        for layer in quantized_layers(cq_result.model).values():
            assert layer.act_observer.initialized


class TestPipelineStages:
    def test_compute_importance_standalone(self, tiny_dataset, trained_mlp):
        quantizer = ClassBasedQuantizer(CQConfig(samples_per_class=4))
        importance = quantizer.compute_importance(trained_mlp, tiny_dataset)
        assert importance.num_classes == tiny_dataset.num_classes

    def test_search_standalone(self, tiny_dataset, trained_mlp):
        config = CQConfig(target_avg_bits=3.0, max_bits=4, step=0.5, samples_per_class=4)
        quantizer = ClassBasedQuantizer(config)
        importance = quantizer.compute_importance(trained_mlp, tiny_dataset)
        search = quantizer.search_bit_widths(trained_mlp, tiny_dataset, importance)
        assert search.average_bits <= 3.0 + 1e-9

    def test_build_quantized_model_applies_map(self, tiny_dataset, trained_mlp):
        config = CQConfig(target_avg_bits=2.0, max_bits=4, step=0.5,
                          samples_per_class=4, act_bits=2)
        quantizer = ClassBasedQuantizer(config)
        importance = quantizer.compute_importance(trained_mlp, tiny_dataset)
        search = quantizer.search_bit_widths(trained_mlp, tiny_dataset, importance)
        student = quantizer.build_quantized_model(trained_mlp, tiny_dataset, search.bit_map)
        layers = quantized_layers(student)
        for name in search.bit_map.layers():
            np.testing.assert_array_equal(layers[name].bits, search.bit_map[name])

    def test_explicit_taps(self, tiny_dataset, trained_mlp):
        quantizer = ClassBasedQuantizer(CQConfig(samples_per_class=4))
        taps = {"fc1": trained_mlp.relu1, "fc2": trained_mlp.relu2}
        importance = quantizer.compute_importance(trained_mlp, tiny_dataset, taps=taps)
        assert set(importance.neuron_scores) == {"fc1", "fc2"}

    def test_zero_refine_epochs_skips_training(self, tiny_dataset, trained_mlp):
        config = CQConfig(
            target_avg_bits=2.0, max_bits=4, step=0.5, samples_per_class=4,
            act_bits=None, refine_epochs=0,
        )
        result = ClassBasedQuantizer(config).quantize(trained_mlp, tiny_dataset)
        assert len(result.refine_history.train) == 0
        assert result.accuracy_after_refine == pytest.approx(
            result.accuracy_before_refine
        )


class TestRefinement:
    def test_refine_improves_over_no_refine(self, tiny_dataset, trained_mlp):
        """KD refinement should improve (or at least not hurt) a heavily
        quantized model."""
        config = CQConfig(
            target_avg_bits=1.5, max_bits=4, step=0.5, samples_per_class=4,
            act_bits=None, refine_epochs=8, refine_lr=0.01, refine_batch_size=25,
        )
        quantizer = ClassBasedQuantizer(config)
        importance = quantizer.compute_importance(trained_mlp, tiny_dataset)
        search = quantizer.search_bit_widths(trained_mlp, tiny_dataset, importance)
        student = quantizer.build_quantized_model(trained_mlp, tiny_dataset, search.bit_map)

        test_loader = DataLoader(
            ArrayDataset(tiny_dataset.test_images, tiny_dataset.test_labels),
            batch_size=40,
        )
        before = evaluate_model(student, test_loader).accuracy
        refine_quantized_model(
            student,
            teacher=trained_mlp,
            train_dataset=ArrayDataset(tiny_dataset.train_images, tiny_dataset.train_labels),
            val_dataset=None,
            config=config,
        )
        after = evaluate_model(student, test_loader).accuracy
        assert after >= before - 0.05

    def test_refine_keeps_bit_assignment(self, tiny_dataset, trained_mlp):
        """Training with STE must not change the bit-width arrangement."""
        config = CQConfig(
            target_avg_bits=2.0, max_bits=4, step=0.5, samples_per_class=4,
            act_bits=None, refine_epochs=3, refine_batch_size=25,
        )
        result = ClassBasedQuantizer(config).quantize(trained_mlp, tiny_dataset)
        layers = quantized_layers(result.model)
        for name in result.bit_map.layers():
            np.testing.assert_array_equal(layers[name].bits, result.bit_map[name])

    def test_quantized_weights_on_grid_after_refine(self, cq_result):
        """effective_weight() must stay on the per-filter quantization grid
        even after SGD updates of the latent weights."""
        from repro.quant.uniform import UniformQuantizer

        for layer in quantized_layers(cq_result.model).values():
            effective = layer.effective_weight().data
            quantizer = UniformQuantizer.for_weights(layer.weight.data)
            for f in range(layer.num_filters):
                bits = int(layer.bits[f])
                grid = quantizer.grid(bits)
                distances = np.abs(
                    effective[f].reshape(-1, 1) - grid.reshape(1, -1)
                ).min(axis=1)
                assert np.all(distances < 1e-9)
