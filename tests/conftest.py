"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.data.synthetic import make_synth_cifar
from repro.models.mlp import MLP
from repro.optim.optimizers import SGD
from repro.train.trainer import Trainer
from repro.data.dataset import ArrayDataset, DataLoader


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def quantized_mlp_factory():
    """Factory for cheap (untrained) quantized MLP presets + manifests.

    Returns ``(model, manifest)`` pairs whose architecture matches
    ``build_preset_model`` exactly, so serving artifacts compiled from
    them load back — the serve tests' workhorse.
    """
    from repro.experiments.presets import build_preset_model
    from repro.quant.qmodules import (
        calibrate_activations,
        quantize_model,
        quantized_layers,
    )
    from repro.serve import ArtifactManifest

    def build(act_bits=None, seed=1, bits_seed=0, num_classes=4, image_size=8):
        model = build_preset_model(
            "mlp", num_classes=num_classes, image_size=image_size,
            scale="tiny", seed=seed,
        )
        quantize_model(model, max_bits=4, act_bits=act_bits)
        bits_rng = np.random.default_rng(bits_seed)
        for layer in quantized_layers(model).values():
            layer.set_bits(bits_rng.integers(0, 5, size=layer.num_filters))
        if act_bits is not None:
            calibration = bits_rng.standard_normal((16, 3, image_size, image_size))
            calibrate_activations(model, [calibration])
        model.eval()
        manifest = ArtifactManifest(
            model="mlp",
            dataset="synth10",
            scale="tiny",
            seed=seed,
            num_classes=num_classes,
            image_size=image_size,
            max_bits=4,
            act_bits=act_bits,
        )
        return model, manifest

    return build


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small, easily separable 4-class dataset (session-cached)."""
    return make_synth_cifar(
        num_classes=4,
        image_size=8,
        train_per_class=25,
        val_per_class=10,
        test_per_class=10,
        noise=0.2,
        seed=7,
    )


@pytest.fixture(scope="session")
def trained_mlp(tiny_dataset):
    """An MLP pre-trained to high accuracy on the tiny dataset."""
    ds = tiny_dataset
    model = MLP(
        in_features=3 * 8 * 8,
        hidden=(32, 24, 16),
        num_classes=ds.num_classes,
        rng=np.random.default_rng(3),
    )
    loader = DataLoader(
        ArrayDataset(ds.train_images, ds.train_labels),
        batch_size=25,
        shuffle=True,
        seed=0,
    )
    trainer = Trainer(model, SGD(model.parameters(), lr=0.05, momentum=0.9))
    trainer.fit(loader, epochs=12)
    model.eval()
    return model


def finite_difference(param_data: np.ndarray, loss_fn, eps: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of ``loss_fn`` w.r.t. ``param_data``.

    ``loss_fn`` must read ``param_data`` (mutated in place) on each call.
    """
    grad = np.zeros_like(param_data)
    flat = param_data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = loss_fn()
        flat[index] = original - eps
        lower = loss_fn()
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


def oracle_reestimate_batchnorm_stats(model, batches, passes=10):
    """BN re-estimation as plain forwards: reset, then ``passes`` sweeps."""
    from repro.nn.layers import _BatchNormBase
    from repro.tensor import Tensor, no_grad

    for bn in model.modules():
        if isinstance(bn, _BatchNormBase):
            bn._set_buffer("running_mean", np.zeros(bn.num_features))
            bn._set_buffer("running_var", np.ones(bn.num_features))
            bn._set_buffer("num_batches_tracked", np.zeros(1))
    was_training = model.training
    model.train()
    with no_grad():
        for _ in range(passes):
            for batch in batches:
                model(Tensor(batch))
    model.train(was_training)


def state_bytes(model):
    """A model's state_dict as ``{name: (dtype, shape, bytes)}``, for
    byte-equality checks."""
    return {
        name: (value.dtype.str, value.shape, value.tobytes())
        for name, value in model.state_dict().items()
    }
