"""Runnable unit specs and their factories for the sweep runner.

A *unit* is one self-contained piece of work — a figure harness run or
a single budget-sweep grid point — described entirely by data: a
dotted ``module:callable`` target plus JSON-able keyword arguments.
Because specs are plain data they cross process boundaries untouched
(the pool workers re-resolve the target by import path) and hash to a
stable content key, which is what makes killed sweeps resumable from
the on-disk result cache.

Unit factories (:func:`figure_units`, :func:`budget_sweep_units`) are
plain functions that expand a family into a deterministic list of
:class:`UnitSpec`; a new family is one more such function, runnable
without touching the runner.
"""

from __future__ import annotations

import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

#: Figure-harness names accepted by :func:`figure_unit` (mirrors the
#: CLI's ``figure`` choices).
FIGURE_NAMES = ("2", "3", "4", "5", "6", "7", "ablations", "granularity")


@dataclass(frozen=True)
class UnitSpec:
    """One runnable unit, fully described by picklable/JSON-able data.

    ``target`` and ``render`` are ``"package.module:callable"`` strings
    resolved by :func:`resolve_target` — in the parent for inline runs,
    in the worker for pooled runs. ``params`` are the keyword arguments
    of the target and must be JSON-serialisable (this is enforced when
    the content key is computed).
    """

    name: str
    target: str
    params: Dict[str, Any] = field(default_factory=dict)
    render: Optional[str] = None

    def content_key(self) -> str:
        """Stable content hash of the unit's full configuration.

        The key is the cache identity of the unit's result: same key,
        same result. Parameter order does not matter (keys are
        sorted); any non-JSON-able parameter raises ``TypeError`` here,
        before any work is scheduled.
        """
        document = {
            "name": self.name,
            "target": self.target,
            "params": self.params,
            "render": self.render,
        }
        canonical = json.dumps(document, sort_keys=True, allow_nan=False)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def resolve_target(target: str) -> Callable:
    """Import and return the callable named by ``module:attribute``."""
    module_name, sep, attribute = target.partition(":")
    if not sep or not module_name or not attribute:
        raise ValueError(
            f"target must look like 'package.module:callable', got {target!r}"
        )
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attribute)
    except AttributeError as error:
        raise AttributeError(
            f"module {module_name!r} has no attribute {attribute!r}"
        ) from error


# ----------------------------------------------------------------------
# Unit factories
# ----------------------------------------------------------------------

def figure_unit(number: str, scale: str = "tiny", seed: int = 0) -> UnitSpec:
    """The unit for one figure harness (``fig2`` ... ``granularity``)."""
    if number not in FIGURE_NAMES:
        raise KeyError(f"unknown figure {number!r}; available: {FIGURE_NAMES}")
    module = (
        f"repro.experiments.fig{number}"
        if number.isdigit()
        else f"repro.experiments.{number}"
    )
    return UnitSpec(
        name=f"figure-{number}",
        target=f"{module}:run",
        params={"scale": scale, "seed": seed},
        render=f"{module}:render",
    )


def figure_units(
    scale: str = "tiny",
    seed: int = 0,
    numbers: Sequence[str] = FIGURE_NAMES,
) -> List[UnitSpec]:
    """Units for every figure harness, in figure order."""
    return [figure_unit(number, scale=scale, seed=seed) for number in numbers]


def budget_sweep_units(
    model: str = "vgg-small",
    dataset: str = "synth10",
    budgets: Sequence[float] = (1.0, 1.5, 2.0, 2.5, 3.0),
    seeds: Sequence[int] = (0,),
    scale: str = "tiny",
    max_bits: int = 4,
    act_bits: Optional[int] = None,
    refine_epochs: Optional[int] = None,
) -> List[UnitSpec]:
    """One unit per ``(budget, seed)`` grid point, in grid order.

    The order (budgets outer, seeds inner) matches
    :func:`repro.experiments.budget_sweep.run`, so pooled and
    sequential sweeps collect identical point sequences.
    """
    units = []
    for budget in budgets:
        for seed in seeds:
            units.append(
                UnitSpec(
                    name=(
                        f"budget-sweep-{model}-{dataset}-{scale}"
                        f"-B{float(budget):g}-s{int(seed)}"
                    ),
                    target="repro.experiments.budget_sweep:run_point",
                    params={
                        "model": model,
                        "dataset": dataset,
                        "budget": float(budget),
                        "seed": int(seed),
                        "scale": scale,
                        "max_bits": int(max_bits),
                        "act_bits": act_bits,
                        "refine_epochs": refine_epochs,
                    },
                )
            )
    return units
