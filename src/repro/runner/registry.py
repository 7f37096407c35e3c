"""Registry of runnable units for the sweep runner.

A *unit* is one self-contained piece of work — a figure harness run or
a single budget-sweep grid point — described entirely by data: a
dotted ``module:callable`` target plus JSON-able keyword arguments.
Because specs are plain data they cross process boundaries untouched
(the pool workers re-resolve the target by import path) and hash to a
stable content key, which is what makes killed sweeps resumable from
the on-disk result cache.

Unit *factories* expand a named family (``figures``, ``budget-sweep``)
into a deterministic list of :class:`UnitSpec`; new experiment
families register themselves with :func:`register_unit_factory` and
become sweepable without touching the runner.
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

UnitFactory = Callable[..., List[UnitSpec]]

_FACTORIES: Dict[str, UnitFactory] = {}


def register_unit_factory(name: str, factory: UnitFactory) -> UnitFactory:
    """Register a named family of units (``build_units(name, ...)``)."""
    _FACTORIES[name] = factory
    return factory


def available_unit_factories() -> List[str]:
    """Registered family names, sorted."""
    return sorted(_FACTORIES)


def build_units(name: str, **kwargs: Any) -> List[UnitSpec]:
    """Expand the named family into its unit list."""
    if name not in _FACTORIES:
        raise KeyError(
            f"unknown unit family {name!r}; available: {available_unit_factories()}"
        )
    return _FACTORIES[name](**kwargs)


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


def serve_replay_units(
    model: str = "vgg-small",
    dataset: str = "synth10",
    scale: str = "tiny",
    seeds: Sequence[int] = (0,),
    bits: Sequence[int] = (2,),
    requests: int = 64,
    trace: str = "uniform",
    rate_rps: float = 200.0,
    slo_ms: float = 50.0,
    batch_window_ms: float = 2.0,
    max_batch_size: int = 16,
    pool_size: int = 1,
    autoscale: bool = False,
    max_engines: int = 4,
    chaos: bool = False,
    backend: str = "float",
    pool: str = "thread",
    workers: int = 2,
) -> List[UnitSpec]:
    """One serving-benchmark unit per ``(bits, seed)`` grid point.

    Targets :func:`repro.serve.replay.run_point`: serve a
    uniform-``bits`` CQW1 artifact of the pretrained preset under a
    seeded open-loop traffic ``trace`` at ``rate_rps`` (micro-batched
    vs sequential) and archive the latency-percentile / SLO report, so
    sweeps can include serving benchmarks next to accuracy grids.
    ``pool_size`` fans the batched replay across that many engines
    leased from one cached artifact (the sequential baseline stays
    single-engine); ``autoscale`` instead scales between ``pool_size``
    and ``max_engines`` from queue depth, and ``chaos`` kills one
    engine mid-trace to archive the recovery path. The trace is seeded
    from each unit's ``seed``, so a unit always offers the identical
    load and stays honest under the content-key result cache.
    ``backend="integer"`` serves the packed codes with integer MACs
    (``-int`` name suffix) and adds the rescale-bound parity check to
    every replayed request. ``pool="process"`` serves the batched
    replay from ``workers`` worker processes over one shared-memory
    artifact (``-procN`` name suffix), fixed or autoscaled. Every pool
    is supervised, so ``chaos`` works with any of these.
    """
    units = []
    for bit in bits:
        for seed in seeds:
            suffix = f"-b{int(bit)}-s{int(seed)}-p{int(pool_size)}"
            if trace != "uniform":
                suffix += f"-{trace}"
            if autoscale:
                suffix += f"-auto{int(max_engines)}"
            if pool == "process":
                suffix += f"-proc{int(workers)}"
            if chaos:
                suffix += "-chaos"
            if backend != "float":
                suffix += "-int" if backend == "integer" else f"-{backend}"
            units.append(
                UnitSpec(
                    name=f"serve-replay-{model}-{dataset}-{scale}{suffix}",
                    target="repro.serve.replay:run_point",
                    params={
                        "model": model,
                        "dataset": dataset,
                        "scale": scale,
                        "seed": int(seed),
                        "bits": int(bit),
                        "requests": int(requests),
                        "trace": str(trace),
                        "rate_rps": float(rate_rps),
                        "slo_ms": float(slo_ms),
                        "batch_window_ms": float(batch_window_ms),
                        "max_batch_size": int(max_batch_size),
                        "pool_size": int(pool_size),
                        "autoscale": bool(autoscale),
                        "max_engines": int(max_engines),
                        "chaos": bool(chaos),
                        "backend": str(backend),
                        "pool": str(pool),
                        "workers": int(workers),
                    },
                    render="repro.serve.replay:render",
                )
            )
    return units


def gateway_replay_units(
    model: str = "vgg-small",
    dataset: str = "synth10",
    scale: str = "tiny",
    seeds: Sequence[int] = (0,),
    bits: Sequence[int] = (2,),
    requests: int = 48,
    trace: str = "uniform",
    rate_rps: float = 150.0,
    slo_ms: float = 100.0,
    batch_window_ms: float = 2.0,
    max_batch_size: int = 16,
    pool_size: int = 1,
    autoscale: bool = False,
    max_engines: int = 4,
    backend: str = "float",
    workers: int = 8,
    pending_budget: int = 256,
    pool: str = "thread",
    pool_workers: int = 2,
) -> List[UnitSpec]:
    """One over-the-wire serving unit per ``(bits, seed)`` grid point.

    Targets :func:`repro.gateway.replay.run_point`: stand up a loopback
    HTTP gateway for a uniform-``bits`` artifact, drive the seeded
    traffic ``trace`` through real sockets with ``workers`` client
    threads, verify every wire-served answer against the server-side
    session (bit-exact float, rescale-bounded integer), and archive the
    latency/SLO report plus the HTTP-vs-in-process overhead ratio.
    ``pool="process"`` puts ``pool_workers`` worker processes behind
    the gateway (``-procN`` name suffix) instead of thread engines.
    """
    units = []
    for bit in bits:
        for seed in seeds:
            suffix = f"-b{int(bit)}-s{int(seed)}-p{int(pool_size)}"
            if trace != "uniform":
                suffix += f"-{trace}"
            if autoscale:
                suffix += f"-auto{int(max_engines)}"
            if pool == "process":
                suffix += f"-proc{int(pool_workers)}"
            if backend != "float":
                suffix += "-int" if backend == "integer" else f"-{backend}"
            units.append(
                UnitSpec(
                    name=f"gateway-replay-{model}-{dataset}-{scale}{suffix}",
                    target="repro.gateway.replay:run_point",
                    params={
                        "model": model,
                        "dataset": dataset,
                        "scale": scale,
                        "seed": int(seed),
                        "bits": int(bit),
                        "requests": int(requests),
                        "trace": str(trace),
                        "rate_rps": float(rate_rps),
                        "slo_ms": float(slo_ms),
                        "batch_window_ms": float(batch_window_ms),
                        "max_batch_size": int(max_batch_size),
                        "pool_size": int(pool_size),
                        "autoscale": bool(autoscale),
                        "max_engines": int(max_engines),
                        "backend": str(backend),
                        "workers": int(workers),
                        "pending_budget": int(pending_budget),
                        "pool": str(pool),
                        "pool_workers": int(pool_workers),
                    },
                    render="repro.gateway.replay:render",
                )
            )
    return units


def lint_units(
    paths: Sequence[str] = ("src/repro",),
    rules: Optional[Sequence[str]] = None,
    tag: Optional[str] = None,
) -> List[UnitSpec]:
    """One lint unit per linted path.

    Targets :func:`repro.analysis.engine.lint_unit`, so static-analysis
    findings can be swept and archived next to accuracy grids. The
    runner's result cache keys on the spec alone and cannot see source
    edits, so findings-over-time sweeps should carry a distinguishing
    ``tag`` (a git revision, a date) to get distinct cache entries.
    """
    units = []
    for path in paths:
        name = f"lint-{str(path).strip('/').replace('/', '-')}"
        if tag is not None:
            name += f"-{tag}"
        units.append(
            UnitSpec(
                name=name,
                target="repro.analysis.engine:lint_unit",
                params={
                    "path": str(path),
                    "rules": None if rules is None else sorted(rules),
                    "tag": tag,
                },
                render="repro.analysis.engine:render_lint_unit",
            )
        )
    return units


register_unit_factory("figures", figure_units)
register_unit_factory("budget-sweep", budget_sweep_units)
register_unit_factory("serve-replay", serve_replay_units)
register_unit_factory("gateway-replay", gateway_replay_units)
register_unit_factory("lint", lint_units)
