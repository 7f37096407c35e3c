"""Tests for the trainer, evaluation, checkpointing and cloning."""

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.models.mlp import MLP
from repro.nn import DistillationLoss
from repro.optim import SGD, MultiStepLR
from repro.quant import quantize_model, quantized_layers
from repro.train import Trainer, evaluate_model
from repro.utils import (
    clone_module,
    load_checkpoint,
    save_checkpoint,
    set_global_seed,
)
from repro.tensor import Tensor


def separable_data(n=60, features=8, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, features)) * 3
    labels = np.repeat(np.arange(classes), n // classes)
    images = centers[labels] + 0.3 * rng.standard_normal((n, features))
    return images, labels


class TestTrainer:
    def test_loss_decreases(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=20, shuffle=True, seed=0)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.05))
        history = trainer.fit(loader, epochs=8)
        assert history.train[-1].loss < history.train[0].loss

    def test_reaches_high_accuracy(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=20, shuffle=True, seed=0)
        history = Trainer(model, SGD(model.parameters(), lr=0.05)).fit(loader, epochs=15)
        assert history.train[-1].accuracy > 0.9

    def test_val_metrics_recorded(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=30)
        history = Trainer(model, SGD(model.parameters(), lr=0.05)).fit(
            loader, val_loader=loader, epochs=3
        )
        assert len(history.val) == 3
        assert history.best_val_accuracy >= history.val[0].accuracy

    def test_scheduler_steps_per_epoch(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=30)
        optimizer = SGD(model.parameters(), lr=1.0)
        scheduler = MultiStepLR(optimizer, milestones=[1], gamma=0.1)
        Trainer(model, optimizer, scheduler=scheduler).fit(loader, epochs=2)
        assert optimizer.lr == pytest.approx(0.1)

    def test_epoch_callback_invoked(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=30)
        calls = []
        Trainer(
            model,
            SGD(model.parameters(), lr=0.01),
            epoch_callback=lambda e, t, m: calls.append(e),
        ).fit(loader, epochs=3)
        assert calls == [0, 1, 2]

    def test_distillation_training_path(self):
        images, labels = separable_data()
        teacher = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=20, shuffle=True, seed=0)
        Trainer(teacher, SGD(teacher.parameters(), lr=0.05)).fit(loader, epochs=10)
        student = MLP(8, (16, 8), 3, rng=np.random.default_rng(1))
        trainer = Trainer(
            student,
            SGD(student.parameters(), lr=0.05),
            loss_fn=DistillationLoss(alpha=0.3),
            teacher=teacher,
        )
        history = trainer.fit(loader, epochs=10)
        assert history.train[-1].accuracy > 0.8

    def test_empty_loader_raises(self):
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        empty = DataLoader(
            ArrayDataset(np.zeros((0, 8)), np.zeros(0)), batch_size=4
        )
        with pytest.raises(ValueError):
            Trainer(model, SGD(model.parameters(), lr=0.01)).train_epoch(empty)

    def test_history_empty_defaults(self):
        from repro.train.trainer import History

        history = History()
        assert np.isnan(history.final_val_accuracy)
        assert np.isnan(history.best_val_accuracy)


class TestEvaluateModel:
    def test_matches_manual_accuracy(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        loader = DataLoader(ArrayDataset(images, labels), batch_size=25)
        metrics = evaluate_model(model, loader)
        model.eval()
        from repro.tensor.tensor import no_grad

        with no_grad():
            logits = model(Tensor(images))
        expected = float((logits.data.argmax(axis=1) == labels).mean())
        assert metrics.accuracy == pytest.approx(expected)
        assert metrics.num_samples == 60

    def test_restores_training_mode(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        model.train()
        evaluate_model(model, DataLoader(ArrayDataset(images, labels), batch_size=30))
        assert model.training

    def test_no_gradients_accumulated(self):
        images, labels = separable_data()
        model = MLP(8, (16, 8), 3, rng=np.random.default_rng(0))
        evaluate_model(model, DataLoader(ArrayDataset(images, labels), batch_size=30))
        assert all(p.grad is None for p in model.parameters())


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path, metadata={"accuracy": 0.93})
        other = MLP(8, (6, 4), 2, rng=np.random.default_rng(1))
        metadata = load_checkpoint(other, path)
        assert metadata == {"accuracy": 0.93}
        np.testing.assert_array_equal(other.fc0.weight.data, model.fc0.weight.data)

    def test_no_metadata(self, tmp_path):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        assert load_checkpoint(model, path) is None

    def test_creates_parent_dirs(self, tmp_path):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        path = tmp_path / "deep" / "nested" / "model.npz"
        save_checkpoint(model, path)
        assert path.exists()


class TestClone:
    def test_clone_is_independent(self):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        clone = clone_module(model)
        clone.fc0.weight.data += 100.0
        assert not np.allclose(model.fc0.weight.data, clone.fc0.weight.data)

    def test_clone_drops_gradients(self):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        model(Tensor(np.ones((2, 8)))).sum().backward()
        clone = clone_module(model)
        assert all(p.grad is None for p in clone.parameters())

    def test_clone_drops_hooks(self):
        model = MLP(8, (6, 4), 2, rng=np.random.default_rng(0))
        model.relu1.register_forward_hook(lambda m, o: None)
        clone = clone_module(model)
        assert len(clone.relu1._forward_hooks) == 0
        assert len(model.relu1._forward_hooks) == 1

    def test_clone_preserves_quant_state(self):
        model = MLP(8, (6, 4, 4), 2, rng=np.random.default_rng(0))
        quantize_model(model, max_bits=4)
        layers = quantized_layers(model)
        first = next(iter(layers.values()))
        first.set_bits(np.full(first.num_filters, 2))
        clone = clone_module(model)
        clone_first = next(iter(quantized_layers(clone).values()))
        np.testing.assert_array_equal(clone_first.bits, first.bits)


class TestSeeding:
    def test_returns_generator(self):
        rng = set_global_seed(42)
        assert isinstance(rng, np.random.Generator)

    def test_reproducible(self):
        a = set_global_seed(1).random(3)
        b = set_global_seed(1).random(3)
        np.testing.assert_array_equal(a, b)
