"""Miscellaneous utilities."""

from __future__ import annotations

import copy
import random

import numpy as np

from repro.nn.module import Module


def set_global_seed(seed: int) -> np.random.Generator:
    """Seed Python's and numpy's legacy RNGs and return a fresh Generator.

    Library code threads explicit ``np.random.Generator`` objects, but
    examples and benchmarks call this once for belt-and-braces
    determinism of any stray legacy-RNG use.
    """
    random.seed(seed)  # repro: allow(determinism) - this IS the seeding utility
    np.random.seed(seed % (2 ** 32))  # repro: allow(determinism) - legacy-RNG seeding on purpose
    return np.random.default_rng(seed)


def clone_module(module: Module) -> Module:
    """Deep-copy a module (weights, buffers and quantization state).

    Gradients and forward hooks are dropped from the clone: gradients are
    transient, and hooks hold references to scorer state that must not
    leak across copies.
    """
    clone = copy.deepcopy(module)
    for param in clone.parameters():
        param.zero_grad()
    for sub in clone.modules():
        sub._forward_hooks.clear()
    return clone
