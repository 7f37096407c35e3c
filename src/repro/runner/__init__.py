"""Sweep orchestration: runnable unit specs + pooled execution.

Every figure harness and budget-sweep grid point is describable as a
:class:`~repro.runner.registry.UnitSpec` — a ``module:callable`` target
plus JSON-able parameters — and two plain factories expand them:
:func:`~repro.runner.registry.figure_units` and
:func:`~repro.runner.registry.budget_sweep_units`.
:class:`~repro.runner.runner.SweepRunner` executes a list of specs in a
process pool, archiving each result under ``.cache/results/`` keyed by
a content hash of the unit's config, so killed sweeps resume by
re-running only the missing points and repeat runs are pure cache
hits. The CLI front ends are ``repro sweep`` and ``repro figure --all``
(see :mod:`repro.cli`); the design is documented in
``docs/architecture.md``.
"""

from repro.runner.registry import (
    FIGURE_NAMES,
    UnitSpec,
    budget_sweep_units,
    figure_unit,
    figure_units,
    resolve_target,
)
from repro.runner.runner import (
    DEFAULT_CACHE_DIR,
    SweepReport,
    SweepRunner,
    UnitOutcome,
    execute_unit,
)

__all__ = [
    "FIGURE_NAMES",
    "UnitSpec",
    "budget_sweep_units",
    "figure_unit",
    "figure_units",
    "resolve_target",
    "DEFAULT_CACHE_DIR",
    "SweepReport",
    "SweepRunner",
    "UnitOutcome",
    "execute_unit",
]
