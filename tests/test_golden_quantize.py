"""Golden ``quantize`` runs: the whole pipeline pinned, bit for bit.

``ClassBasedQuantizer.quantize`` (importance -> threshold search ->
build/calibrate -> KD refine) is run on the committed ``tiny`` synth10
checkpoints in ``.cache/pretrained/`` and reduced to a fingerprint: the
bit-map digest, the sha256 of the refined ``state_dict`` bytes, the
refine loss floats and the test accuracy. On the host the pins were
recorded on (``GOLDEN_HOST``), the fingerprint must equal the pin
exactly. Elsewhere BLAS may round differently, so the test checks that
two calls in one process agree instead.

The tier-1 leg refines for one epoch; the slow leg is the benchmark's
``quantize`` configuration (four refine epochs).
"""

import hashlib
import json

import pytest

from tests.conftest import state_bytes
from tests.test_conv_lowering import GOLDEN_HOST, host_fingerprint

#: Fingerprints recorded on ``GOLDEN_HOST``; ``losses`` holds the refine
#: loss of each epoch, as ``float.hex``.
GOLDEN_TIER1 = {
    "mlp": {
        "bit_map": "311f80c57dde124f",
        "state_sha256": "bb4bf43ab3f2b2a06cefd8f8f2c41daad6cbf749c2f4e50f2f97240c30592ce3",
        "losses": ["0x1.f1919453ee74ep-2"],
        "accuracy": 0.91,
    },
    "vgg-small": {
        "bit_map": "f015b50b7114574b",
        "state_sha256": "f0c15ada392bee2b5766639183d38e276e2be6287f0a505dec912bc289f93f34",
        "losses": ["0x1.69cfffe9a7976p+0"],
        "accuracy": 0.21,
    },
}
GOLDEN_SLOW = {
    "bit_map": "f015b50b7114574b",
    "state_sha256": "b45240e7cb6f0c5bb830249caa1c04f99ea6922e4e18d571e55369d6d4938580",
    "losses": [
        "0x1.69cfffe9a7976p+0",
        "0x1.6b0cadb00b723p-1",
        "0x1.5bf5ea80fd673p-2",
        "0x1.14fa1853e2420p-2",
    ],
    "accuracy": 0.67,
}


@pytest.fixture
def committed_checkpoints(monkeypatch):
    """Load pre-trained models from the committed ``.cache/pretrained``,
    never from an in-memory model another test trained."""
    from repro.experiments import presets

    monkeypatch.delenv("REPRO_PRETRAINED_CACHE", raising=False)
    presets.clear_caches()
    yield presets
    presets.clear_caches()


def quantize_fingerprint(presets, model_name, refine_epochs):
    from repro.core.config import CQConfig
    from repro.core.pipeline import ClassBasedQuantizer

    pattern = f"{model_name}-synth10-tiny-0-*.npz"
    assert list(presets._CACHE_DIR.glob(pattern)), f"no committed {pattern}"
    model, dataset, _ = presets.get_pretrained(model_name, "synth10", scale="tiny", seed=0)
    config = CQConfig(
        target_avg_bits=2.0,
        max_bits=4,
        act_bits=None,
        refine_epochs=refine_epochs,
        samples_per_class=min(16, dataset.config.val_per_class),
        seed=0,
    )
    result = ClassBasedQuantizer(config).quantize(model, dataset)
    assert result.average_bits <= 2.0 + 1e-9
    bit_map = json.dumps(result.bit_map.to_dict(), sort_keys=True, allow_nan=False)
    state = hashlib.sha256()
    for name, (dtype, shape, data) in sorted(state_bytes(result.model).items()):
        state.update(f"{name}|{dtype}|{shape}|".encode())
        state.update(data)
    return {
        "bit_map": hashlib.sha1(bit_map.encode()).hexdigest()[:16],
        "state_sha256": state.hexdigest(),
        "losses": [float(m.loss).hex() for m in result.refine_history.train],
        "accuracy": result.accuracy_after_refine,
    }


def check_fingerprint(presets, model_name, refine_epochs, golden):
    got = quantize_fingerprint(presets, model_name, refine_epochs)
    assert len(got["losses"]) == refine_epochs
    if host_fingerprint() == GOLDEN_HOST:
        assert got == golden
    else:
        assert quantize_fingerprint(presets, model_name, refine_epochs) == got


@pytest.mark.parametrize("model_name", sorted(GOLDEN_TIER1))
def test_quantize_one_refine_epoch(committed_checkpoints, model_name):
    check_fingerprint(committed_checkpoints, model_name, 1, GOLDEN_TIER1[model_name])


@pytest.mark.slow
def test_quantize_benchmark_configuration(committed_checkpoints):
    check_fingerprint(committed_checkpoints, "vgg-small", 4, GOLDEN_SLOW)
