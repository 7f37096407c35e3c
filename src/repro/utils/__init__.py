"""Shared utilities: seeding, cloning, checkpoints, metrics."""

from repro.utils.checkpoint import load_checkpoint, save_checkpoint
from repro.utils.misc import clone_module, set_global_seed

__all__ = [
    "clone_module",
    "load_checkpoint",
    "save_checkpoint",
    "set_global_seed",
]
