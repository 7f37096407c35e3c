"""Tests for batch-norm re-estimation after quantization."""

import numpy as np
import pytest

import repro.tensor.functional as functional
from repro.data.synthetic import make_synth_cifar
from repro.models.resnet import ResNet20
from repro.models.vgg import VGGSmall
from repro.nn.layers import (
    BatchNorm1d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    ReLU,
)
from repro.nn.module import Sequential
from repro.quant import quantize_model, quantized_layers
from repro.quant.bn import reestimate_batchnorm_stats
from repro.tensor import Tensor
from repro.utils import clone_module
from tests.conftest import oracle_reestimate_batchnorm_stats, state_bytes


@pytest.fixture(scope="module")
def trained_vgg():
    from repro.data import ArrayDataset, DataLoader
    from repro.optim import SGD
    from repro.train import Trainer

    dataset = make_synth_cifar(
        num_classes=4, image_size=8, train_per_class=25, val_per_class=5,
        test_per_class=10, seed=21,
    )
    model = VGGSmall(num_classes=4, image_size=8, width=4, rng=np.random.default_rng(0))
    loader = DataLoader(
        ArrayDataset(dataset.train_images, dataset.train_labels),
        batch_size=25, shuffle=True, seed=0,
    )
    Trainer(model, SGD(model.parameters(), lr=0.02, momentum=0.9)).fit(loader, epochs=10)
    return model, dataset


class TestReestimation:
    def test_returns_bn_count(self, trained_vgg):
        model, dataset = trained_vgg
        clone = clone_module(model)
        count = reestimate_batchnorm_stats(clone, [dataset.train_images[:25]])
        assert count == 5  # VGG-small has 5 BatchNorm2d layers

    def test_no_bn_model_returns_zero(self, tiny_dataset, trained_mlp):
        clone = clone_module(trained_mlp)
        count = reestimate_batchnorm_stats(clone, [tiny_dataset.train_images[:10]])
        assert count == 0

    def test_stats_change_after_quantization(self, trained_vgg):
        model, dataset = trained_vgg
        student = clone_module(model)
        quantize_model(student, max_bits=2)
        for layer in quantized_layers(student).values():
            layer.set_bits(np.full(layer.num_filters, 1, dtype=np.int64))
        original_means = {
            name: bn.running_mean.copy()
            for name, bn in student.named_modules()
            if isinstance(bn, BatchNorm2d)
        }
        reestimate_batchnorm_stats(student, [dataset.train_images[:25]])
        changed = any(
            not np.allclose(bn.running_mean, original_means[name])
            for name, bn in student.named_modules()
            if isinstance(bn, BatchNorm2d)
        )
        assert changed

    def test_restores_training_flag(self, trained_vgg):
        model, dataset = trained_vgg
        clone = clone_module(model)
        clone.eval()
        reestimate_batchnorm_stats(clone, [dataset.train_images[:25]])
        assert not clone.training

    def test_no_weight_updates(self, trained_vgg):
        model, dataset = trained_vgg
        clone = clone_module(model)
        weight_before = clone.conv1.weight.data.copy()
        reestimate_batchnorm_stats(clone, [dataset.train_images[:25]])
        np.testing.assert_array_equal(clone.conv1.weight.data, weight_before)

    def test_improves_or_preserves_quantized_accuracy(self, trained_vgg):
        """The headline property: after low-bit quantization, re-estimated
        BN statistics should not hurt, and typically help, eval accuracy."""
        from repro.data import ArrayDataset, DataLoader
        from repro.train import evaluate_model

        model, dataset = trained_vgg
        student = clone_module(model)
        quantize_model(student, max_bits=4)
        for layer in quantized_layers(student).values():
            layer.set_bits(np.full(layer.num_filters, 2, dtype=np.int64))
        loader = DataLoader(
            ArrayDataset(dataset.test_images, dataset.test_labels), batch_size=40
        )
        before = evaluate_model(student, loader).accuracy
        reestimate_batchnorm_stats(student, [dataset.train_images[:50]], passes=10)
        after = evaluate_model(student, loader).accuracy
        assert after >= before - 0.1

    def test_validation(self, trained_vgg):
        model, dataset = trained_vgg
        with pytest.raises(ValueError):
            reestimate_batchnorm_stats(model, [], passes=1)
        with pytest.raises(ValueError):
            reestimate_batchnorm_stats(model, [dataset.train_images[:5]], passes=0)
        # A bad batch is caught before any buffer is reset.
        clone = clone_module(model)
        before = state_bytes(clone)
        for bad, message in [
            (np.empty((0, 3, 8, 8)), "batch 1 is empty"),
            (np.zeros((4, 3, 8, 7)), "batch 1 has shape"),
        ]:
            with pytest.raises(ValueError, match=message):
                reestimate_batchnorm_stats(clone, [dataset.train_images[:4], bad])
            assert state_bytes(clone) == before


def _dropout_net():
    return Sequential(
        Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(2)),
        BatchNorm2d(4),
        ReLU(),
        Flatten(),
        Dropout(0.5, rng=np.random.default_rng(5)),
        Linear(4 * 8 * 8, 6, rng=np.random.default_rng(3)),
        BatchNorm1d(6),
    )


class TestReplay:
    """Replayed passes must leave exactly the state of run passes."""

    @staticmethod
    def count_forwards(monkeypatch):
        calls = []
        original = functional.conv2d

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(functional, "conv2d", counting)
        return calls

    @pytest.mark.parametrize("arch", ["vgg", "resnet"])
    @pytest.mark.parametrize("num_batches", [1, 2])
    @pytest.mark.parametrize("act_bits", [None, 2])
    def test_matches_ten_forwards(self, trained_vgg, monkeypatch, arch, num_batches, act_bits):
        model, dataset = trained_vgg
        if arch == "vgg":
            base = clone_module(model)
        else:
            base = ResNet20(num_classes=4, base_width=2, rng=np.random.default_rng(1))
        quantize_model(base, max_bits=4, act_bits=act_bits)
        rng = np.random.default_rng(4)
        for layer in quantized_layers(base).values():
            layer.set_bits(rng.integers(1, 5, size=layer.num_filters))
        batches = [dataset.train_images[20 * b : 20 * b + 20] for b in range(num_batches)]
        expected = clone_module(base)
        oracle_reestimate_batchnorm_stats(expected, batches, passes=10)

        calls = self.count_forwards(monkeypatch)
        got = clone_module(base)
        reestimate_batchnorm_stats(got, batches, passes=10)
        assert state_bytes(got) == state_bytes(expected)
        convs = sum(isinstance(m, Conv2d) for m in base.modules())
        # Weight-only models run one pass; observers force all ten.
        passes_run = 10 if act_bits is not None else 1
        assert len(calls) == convs * num_batches * passes_run

    def test_active_dropout_runs_every_pass(self, tiny_dataset):
        batches = [tiny_dataset.train_images[:10], tiny_dataset.train_images[10:20]]
        expected, got = _dropout_net(), _dropout_net()
        oracle_reestimate_batchnorm_stats(expected, batches, passes=10)
        reestimate_batchnorm_stats(got, batches, passes=10)
        assert state_bytes(got) == state_bytes(expected)
        assert got[4]._rng.bit_generator.state == expected[4]._rng.bit_generator.state
