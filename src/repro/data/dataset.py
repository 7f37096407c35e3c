"""Dataset and mini-batch loading (the ``torch.utils.data`` replacement)."""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np


class Dataset:
    """Minimal dataset interface: length + integer indexing."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError


class ArrayDataset(Dataset):
    """Dataset backed by in-memory image and label arrays."""

    def __init__(self, images: np.ndarray, labels: np.ndarray):
        images = np.asarray(images)
        labels = np.asarray(labels)
        if len(images) != len(labels):
            raise ValueError(
                f"images ({len(images)}) and labels ({len(labels)}) disagree"
            )
        self.images = images
        self.labels = labels

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    def subset(self, indices: Sequence[int]) -> "ArrayDataset":
        indices = np.asarray(indices)
        return ArrayDataset(self.images[indices], self.labels[indices])


class DataLoader:
    """Iterates mini-batches ``(images, labels)`` of numpy arrays."""

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 32,
        shuffle: bool = False,
        drop_last: bool = False,
        seed: Optional[int] = None,
    ):
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.drop_last = drop_last
        self._rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            self._rng.shuffle(order)
        for start in range(0, n, self.batch_size):
            indices = order[start : start + self.batch_size]
            if self.drop_last and len(indices) < self.batch_size:
                break
            images = self.dataset.images[indices]
            labels = self.dataset.labels[indices]
            yield images, labels


def train_val_test_split(
    images: np.ndarray,
    labels: np.ndarray,
    val_fraction: float = 0.1,
    test_fraction: float = 0.1,
    seed: int = 0,
) -> Tuple[ArrayDataset, ArrayDataset, ArrayDataset]:
    """Random stratification-free split into three :class:`ArrayDataset`."""
    if val_fraction + test_fraction >= 1.0:
        raise ValueError("val_fraction + test_fraction must be < 1")
    n = len(images)
    order = np.random.default_rng(seed).permutation(n)
    n_val = int(round(n * val_fraction))
    n_test = int(round(n * test_fraction))
    val_idx = order[:n_val]
    test_idx = order[n_val : n_val + n_test]
    train_idx = order[n_val + n_test :]
    return (
        ArrayDataset(images[train_idx], labels[train_idx]),
        ArrayDataset(images[val_idx], labels[val_idx]),
        ArrayDataset(images[test_idx], labels[test_idx]),
    )
