"""SynthCIFAR: class-structured synthetic image datasets.

Stands in for CIFAR-10/100 (unavailable offline). The generator is built
so the *mechanism* CQ relies on is present:

* each class has a prototype composed from a bank of smooth basis
  patterns; some basis patterns are **class-private**, some are **shared
  between neighbouring classes**, and some are **global**. Trained
  filters therefore specialise to one class, a few classes, or all
  classes — the exact spectrum the importance score ``gamma`` (eq. 7)
  measures and Figures 1-2 illustrate;
* samples add geometric jitter (shifts, flips), per-sample contrast and
  Gaussian noise, so the task is non-trivial and accuracy degrades
  smoothly as bit-widths shrink (needed for the threshold search).

The classes are balanced and the generator is fully deterministic given
a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

try:
    from scipy.ndimage import gaussian_filter
except ImportError:  # pragma: no cover - scipy is an install requirement
    gaussian_filter = None


def _smooth_pattern(rng: np.random.Generator, channels: int, size: int, sigma: float) -> np.ndarray:
    """Random smooth pattern, unit-normalised, shape (C, S, S)."""
    pattern = rng.standard_normal((channels, size, size))
    if gaussian_filter is not None:
        pattern = gaussian_filter(pattern, sigma=(0, sigma, sigma))
    else:  # crude box blur fallback
        for _ in range(3):
            pattern = (
                pattern
                + np.roll(pattern, 1, axis=1)
                + np.roll(pattern, -1, axis=1)
                + np.roll(pattern, 1, axis=2)
                + np.roll(pattern, -1, axis=2)
            ) / 5.0
    norm = np.sqrt((pattern ** 2).sum())
    return pattern / max(norm, 1e-12)


@dataclass
class SynthCIFARConfig:
    """Generator parameters.

    ``shared_fraction`` controls how much of each prototype comes from
    patterns shared with neighbouring classes (class-overlap), and
    ``global_fraction`` from patterns common to all classes.
    """

    num_classes: int = 10
    image_size: int = 16
    channels: int = 3
    train_per_class: int = 100
    val_per_class: int = 20
    test_per_class: int = 20
    noise: float = 0.25
    jitter: int = 2
    shared_fraction: float = 0.35
    global_fraction: float = 0.15
    pattern_sigma: float = 2.0
    num_global_patterns: int = 4
    seed: int = 0


@dataclass
class SynthCIFAR:
    """A generated dataset split into train / val / test arrays.

    Attributes
    ----------
    train_images, val_images, test_images:
        Float arrays of shape ``(N, C, S, S)``, roughly unit variance.
    train_labels, val_labels, test_labels:
        Integer arrays of shape ``(N,)``.
    """

    config: SynthCIFARConfig
    train_images: np.ndarray
    train_labels: np.ndarray
    val_images: np.ndarray
    val_labels: np.ndarray
    test_images: np.ndarray
    test_labels: np.ndarray
    prototypes: np.ndarray = field(repr=False, default=None)

    @property
    def num_classes(self) -> int:
        return self.config.num_classes

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        cfg = self.config
        return (cfg.channels, cfg.image_size, cfg.image_size)

    def class_batches(self, per_class: int, split: str = "val") -> Dict[int, np.ndarray]:
        """Per-class image batches for the importance-scoring phase.

        Returns ``{class_index: images (per_class, C, S, S)}`` drawn from
        the requested split (validation by default, as in Sec. III-A).
        """
        images, labels = {
            "train": (self.train_images, self.train_labels),
            "val": (self.val_images, self.val_labels),
            "test": (self.test_images, self.test_labels),
        }[split]
        batches: Dict[int, np.ndarray] = {}
        for class_index in range(self.num_classes):
            members = images[labels == class_index]
            if len(members) == 0:
                raise ValueError(f"split {split!r} has no images of class {class_index}")
            count = min(per_class, len(members))
            batches[class_index] = members[:count]
        return batches


def _build_prototypes(cfg: SynthCIFARConfig, rng: np.random.Generator) -> np.ndarray:
    """Compose per-class prototypes from private / shared / global patterns."""
    m = cfg.num_classes
    private = np.stack(
        [_smooth_pattern(rng, cfg.channels, cfg.image_size, cfg.pattern_sigma) for _ in range(m)]
    )
    shared = np.stack(
        [_smooth_pattern(rng, cfg.channels, cfg.image_size, cfg.pattern_sigma) for _ in range(m)]
    )
    global_patterns = np.stack(
        [
            _smooth_pattern(rng, cfg.channels, cfg.image_size, cfg.pattern_sigma)
            for _ in range(cfg.num_global_patterns)
        ]
    )
    private_weight = 1.0 - cfg.shared_fraction - cfg.global_fraction
    if private_weight <= 0:
        raise ValueError("shared_fraction + global_fraction must be < 1")
    prototypes = np.empty((m, cfg.channels, cfg.image_size, cfg.image_size))
    for class_index in range(m):
        # Shared pattern bridges class_index and class_index + 1 (mod m),
        # mirroring Figure 1's neurons that matter for both cats and dogs.
        mix = (
            private_weight * private[class_index]
            + cfg.shared_fraction
            * 0.5
            * (shared[class_index] + shared[(class_index + 1) % m])
            + cfg.global_fraction * global_patterns[class_index % cfg.num_global_patterns]
        )
        prototypes[class_index] = mix / np.sqrt((mix ** 2).sum())
    return prototypes


def _render_samples(
    prototypes: np.ndarray, labels: np.ndarray, cfg: SynthCIFARConfig, rng: np.random.Generator
) -> np.ndarray:
    """Instantiate noisy, jittered samples of the given labels."""
    n = len(labels)
    size = cfg.image_size
    images = np.empty((n, cfg.channels, size, size))
    shifts = rng.integers(-cfg.jitter, cfg.jitter + 1, size=(n, 2))
    flips = rng.random(n) < 0.5
    contrast = rng.uniform(0.8, 1.2, size=n)
    for i in range(n):
        proto = prototypes[labels[i]]
        sample = np.roll(proto, shift=tuple(shifts[i]), axis=(1, 2))
        if flips[i]:
            sample = sample[:, :, ::-1]
        images[i] = contrast[i] * sample
    images += cfg.noise * rng.standard_normal(images.shape) / size
    # Normalise to roughly unit scale for stable training.
    images /= max(images.std(), 1e-12)
    return images


def _balanced_labels(num_classes: int, per_class: int, rng: np.random.Generator) -> np.ndarray:
    labels = np.repeat(np.arange(num_classes), per_class)
    rng.shuffle(labels)
    return labels


def make_synth_cifar(
    num_classes: int = 10,
    image_size: int = 16,
    train_per_class: int = 100,
    val_per_class: int = 20,
    test_per_class: int = 20,
    noise: float = 0.25,
    seed: int = 0,
    **overrides,
) -> SynthCIFAR:
    """Generate a :class:`SynthCIFAR` dataset.

    ``num_classes=10`` stands in for CIFAR-10, ``num_classes=100`` for
    CIFAR-100. All splits are balanced and deterministic given ``seed``.
    """
    cfg = SynthCIFARConfig(
        num_classes=num_classes,
        image_size=image_size,
        train_per_class=train_per_class,
        val_per_class=val_per_class,
        test_per_class=test_per_class,
        noise=noise,
        seed=seed,
        **overrides,
    )
    rng = np.random.default_rng(cfg.seed)
    prototypes = _build_prototypes(cfg, rng)

    train_labels = _balanced_labels(cfg.num_classes, cfg.train_per_class, rng)
    val_labels = _balanced_labels(cfg.num_classes, cfg.val_per_class, rng)
    test_labels = _balanced_labels(cfg.num_classes, cfg.test_per_class, rng)

    return SynthCIFAR(
        config=cfg,
        train_images=_render_samples(prototypes, train_labels, cfg, rng),
        train_labels=train_labels,
        val_images=_render_samples(prototypes, val_labels, cfg, rng),
        val_labels=val_labels,
        test_images=_render_samples(prototypes, test_labels, cfg, rng),
        test_labels=test_labels,
        prototypes=prototypes,
    )
