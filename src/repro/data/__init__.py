"""Datasets and loading utilities.

CIFAR-10/100 are not available offline, so :mod:`repro.data.synthetic`
generates class-structured images ("SynthCIFAR") whose key property
matches what CQ exploits: different network filters become important for
different classes. See DESIGN.md §2 for the substitution rationale.
"""

from repro.data.dataset import ArrayDataset, DataLoader, Dataset, train_val_test_split
from repro.data.synthetic import SynthCIFAR, make_synth_cifar

__all__ = [
    "ArrayDataset",
    "DataLoader",
    "Dataset",
    "SynthCIFAR",
    "make_synth_cifar",
    "train_val_test_split",
]
