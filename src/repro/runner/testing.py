"""Cheap units for exercising the sweep runner without training.

The runner's correctness properties — cache-resume, jobs-count
invariance, per-unit seeding — are independent of what a unit computes,
so the tier-1 tests and the CI sweep smoke drive the runner through
these toy units instead of multi-second CQ pipelines. They live in the
package (not in ``tests/``) because pool workers must be able to import
the target in a fresh process.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

import numpy as np

from repro.runner.registry import UnitSpec


def toy_unit(
    value: float,
    seed: int = 0,
    marker_path: Optional[str] = None,
    fail: bool = False,
) -> dict:
    """A trivially fast unit with observable side effects.

    ``marker_path`` appends one line per execution, so tests can count
    which units actually ran (a cache hit leaves no line). ``noise``
    comes from a Generator seeded by the unit's own identity, so it is
    identical whether the unit runs inline or in a pool worker — and
    never depends on hidden global RNG state.
    """
    if fail:
        raise RuntimeError(f"toy unit failed on request (value={value})")
    if marker_path is not None:
        with open(marker_path, "a") as marker:
            marker.write(f"{value}:{seed}\n")
    digest = hashlib.sha256(f"toy:{float(value)!r}:{int(seed)}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "big"))
    return {
        "value": float(value),
        "seed": int(seed),
        "scaled": float(value) * (int(seed) + 1),
        "noise": float(rng.random()),
    }


def toy_render(result: dict) -> str:
    return f"toy value={result['value']:g} scaled={result['scaled']:g}"


def toy_units(
    values: Sequence[float],
    seeds: Sequence[int] = (0,),
    marker_path: Optional[str] = None,
) -> List[UnitSpec]:
    """One unit per ``(value, seed)``, in grid order."""
    return [
        UnitSpec(
            name=f"toy-v{float(value):g}-s{int(seed)}",
            target="repro.runner.testing:toy_unit",
            params={
                "value": float(value),
                "seed": int(seed),
                "marker_path": marker_path,
            },
            render="repro.runner.testing:toy_render",
        )
        for value in values
        for seed in seeds
    ]
