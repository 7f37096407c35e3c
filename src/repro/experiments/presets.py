"""Scaled experiment presets and a pre-trained-model cache.

The paper trains on CIFAR-10/100 with RTX 6000 GPUs for 400 epochs; the
presets here shrink datasets and widths so the full evaluation grid
runs on a CPU in minutes while preserving the comparisons' structure.
``scale="small"`` is the default everywhere; ``scale="paper"`` keeps
the paper's geometry for users with more patience.

Pre-trained models are cached in memory (per process) and on disk under
``.cache/pretrained`` so the per-figure benchmarks don't retrain the
same network repeatedly.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.data.dataset import ArrayDataset, DataLoader
from repro.data.synthetic import SynthCIFAR, make_synth_cifar
from repro.models.registry import build_model
from repro.nn.module import Module
from repro.optim.optimizers import SGD
from repro.optim.schedulers import MultiStepLR
from repro.train.trainer import Trainer, evaluate_model
from repro.utils.checkpoint import load_checkpoint, save_checkpoint

_CACHE_DIR = Path(__file__).resolve().parents[3] / ".cache" / "pretrained"
_MEMORY_CACHE: Dict[str, Tuple[Module, float]] = {}


def _disk_cache_dir() -> Path:
    """Checkpoint cache location, overridable per process tree.

    ``REPRO_PRETRAINED_CACHE`` takes precedence over the module-level
    default so test isolation reaches sweep-runner pool workers under
    any multiprocessing start method (environment is inherited even by
    ``spawn``, module monkeypatches are not).
    """
    override = os.environ.get("REPRO_PRETRAINED_CACHE")
    return Path(override) if override else _CACHE_DIR


@dataclass(frozen=True)
class ExperimentScale:
    """Geometry and training budget of one experiment scale."""

    image_size: int = 16
    train_per_class_10: int = 40
    eval_per_class_10: int = 20
    train_per_class_100: int = 8
    eval_per_class_100: int = 4
    vgg_width: int = 8
    resnet_base_width: int = 4
    resnet_x5_base_width: int = 2
    """ResNet-20-x5 keeps ``expand=5`` but from a narrower base so the
    widest network stays CPU-tractable; the x5/x1 width ratio is
    preserved in spirit (x5 is still the widest model in the grid)."""
    pretrain_epochs: int = 20
    pretrain_lr: float = 0.02
    batch_size: int = 50
    refine_epochs: int = 24
    apn_epochs: int = 10
    wrapnet_epochs: int = 10
    baseline_lr: float = 0.01
    refine_lr: float = 0.02
    """CQ's refinement starts from heavily quantized (partly pruned)
    weights, so it uses the pre-training learning rate; the APN/WrapNet
    baselines fine-tune intact weights and keep the gentler
    ``baseline_lr``."""


SCALES: Dict[str, ExperimentScale] = {
    "tiny": ExperimentScale(
        train_per_class_10=40,
        eval_per_class_10=10,
        train_per_class_100=8,
        eval_per_class_100=4,
        vgg_width=8,
        resnet_base_width=4,
        resnet_x5_base_width=1,
        pretrain_epochs=15,
        refine_epochs=24,
        apn_epochs=6,
        wrapnet_epochs=6,
        baseline_lr=0.01,
    ),
    "small": ExperimentScale(
        train_per_class_10=100,
        eval_per_class_10=20,
        train_per_class_100=10,
        eval_per_class_100=4,
        vgg_width=16,
        resnet_base_width=8,
        resnet_x5_base_width=2,
        pretrain_epochs=25,
        refine_epochs=30,
        apn_epochs=10,
        wrapnet_epochs=10,
    ),
    "paper": ExperimentScale(
        image_size=32,
        train_per_class_10=5000,
        eval_per_class_10=1000,
        train_per_class_100=500,
        eval_per_class_100=100,
        vgg_width=32,
        resnet_base_width=16,
        resnet_x5_base_width=16,
        pretrain_epochs=400,
        pretrain_lr=0.02,
        batch_size=100,
        refine_epochs=400,
        apn_epochs=100,
        wrapnet_epochs=100,
    ),
}


def get_scale(scale: str) -> ExperimentScale:
    if scale not in SCALES:
        raise KeyError(f"unknown scale {scale!r}; available: {sorted(SCALES)}")
    return SCALES[scale]


def get_dataset(name: str, scale: str = "small", seed: int = 0) -> SynthCIFAR:
    """Build a preset dataset: ``"synth10"`` or ``"synth100"``."""
    cfg = get_scale(scale)
    if name == "synth10":
        return make_synth_cifar(
            num_classes=10,
            image_size=cfg.image_size,
            train_per_class=cfg.train_per_class_10,
            val_per_class=cfg.eval_per_class_10,
            test_per_class=cfg.eval_per_class_10,
            seed=seed,
        )
    if name == "synth100":
        return make_synth_cifar(
            num_classes=100,
            image_size=cfg.image_size,
            train_per_class=cfg.train_per_class_100,
            val_per_class=cfg.eval_per_class_100,
            test_per_class=cfg.eval_per_class_100,
            seed=seed,
        )
    raise KeyError(f"unknown dataset {name!r}; use 'synth10' or 'synth100'")


def _model_kwargs(model_name: str, scale_cfg: ExperimentScale) -> dict:
    if model_name == "vgg-small":
        return {"width": scale_cfg.vgg_width, "image_size": scale_cfg.image_size}
    if model_name == "resnet20-x1":
        return {"base_width": scale_cfg.resnet_base_width}
    if model_name == "resnet20-x5":
        return {"base_width": scale_cfg.resnet_x5_base_width}
    if model_name == "mlp":
        return {"image_size": scale_cfg.image_size}
    raise KeyError(f"unknown model {model_name!r}")


def build_preset_model(
    model_name: str,
    num_classes: int,
    image_size: int,
    scale: str = "small",
    seed: int = 0,
) -> Module:
    """Architecture-only construction of a preset model (no training).

    Builds the exact architecture ``pretrain``/``get_pretrained`` would
    train at this scale, so state dicts and serving artifacts
    (:mod:`repro.serve.artifact`) saved from a preset model load back
    into a freshly built one.
    """
    cfg = get_scale(scale)
    kwargs = _model_kwargs(model_name, cfg)
    kwargs.pop("image_size", None)
    if model_name in ("vgg-small", "mlp"):
        kwargs["image_size"] = image_size
    return build_model(model_name, num_classes=num_classes, seed=seed, **kwargs)


def pretrain(
    model_name: str,
    dataset: SynthCIFAR,
    scale: str = "small",
    seed: int = 0,
    epochs: Optional[int] = None,
) -> Tuple[Module, float]:
    """Train a fresh model on ``dataset``; returns ``(model, test_accuracy)``."""
    cfg = get_scale(scale)
    epochs = epochs if epochs is not None else cfg.pretrain_epochs
    model = build_preset_model(
        model_name,
        num_classes=dataset.num_classes,
        image_size=dataset.config.image_size,
        scale=scale,
        seed=seed,
    )
    train_loader = DataLoader(
        ArrayDataset(dataset.train_images, dataset.train_labels),
        batch_size=cfg.batch_size,
        shuffle=True,
        seed=seed,
    )
    optimizer = SGD(
        model.parameters(), lr=cfg.pretrain_lr, momentum=0.9, weight_decay=1e-4
    )
    scheduler = MultiStepLR(
        optimizer,
        milestones=[max(1, epochs // 2), max(2, (3 * epochs) // 4)],
        gamma=0.1,
    )
    Trainer(model, optimizer, scheduler=scheduler).fit(train_loader, epochs=epochs)
    test_loader = DataLoader(
        ArrayDataset(dataset.test_images, dataset.test_labels),
        batch_size=cfg.batch_size,
    )
    accuracy = evaluate_model(model, test_loader).accuracy
    return model, accuracy


def _cache_key(model_name: str, dataset_name: str, scale: str, seed: int) -> str:
    payload = json.dumps(
        {
            "model": model_name,
            "dataset": dataset_name,
            "scale": asdict(get_scale(scale)),
            "seed": seed,
        },
        sort_keys=True,
        allow_nan=False,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def get_pretrained(
    model_name: str,
    dataset_name: str,
    scale: str = "small",
    seed: int = 0,
    use_disk_cache: bool = True,
) -> Tuple[Module, SynthCIFAR, float]:
    """Pre-trained ``(model, dataset, test_accuracy)`` with caching.

    The dataset is regenerated deterministically; the weights come from
    the in-memory cache, the on-disk cache, or a fresh training run (in
    that order).
    """
    key = _cache_key(model_name, dataset_name, scale, seed)
    dataset = get_dataset(dataset_name, scale=scale, seed=seed)

    if key in _MEMORY_CACHE:
        model, accuracy = _MEMORY_CACHE[key]
        return model, dataset, accuracy

    checkpoint_path = (
        _disk_cache_dir() / f"{model_name}-{dataset_name}-{scale}-{seed}-{key}.npz"
    )
    if use_disk_cache and checkpoint_path.exists():
        model = build_preset_model(
            model_name,
            num_classes=dataset.num_classes,
            image_size=dataset.config.image_size,
            scale=scale,
            seed=seed,
        )
        metadata = load_checkpoint(model, checkpoint_path)
        accuracy = float(metadata["test_accuracy"]) if metadata else float("nan")
    else:
        model, accuracy = pretrain(model_name, dataset, scale=scale, seed=seed)
        if use_disk_cache:
            save_checkpoint(model, checkpoint_path, {"test_accuracy": accuracy})

    _MEMORY_CACHE[key] = (model, accuracy)
    return model, dataset, accuracy


def clear_caches() -> None:
    """Drop the in-memory cache (tests use this for isolation)."""
    _MEMORY_CACHE.clear()
