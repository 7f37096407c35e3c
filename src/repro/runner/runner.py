"""Parallel, resumable execution of unit specs.

:class:`SweepRunner` takes a list of :class:`~repro.runner.registry.UnitSpec`
and brings every unit's result into ``cache_dir``:

* **Cache lookup.** Each unit's result lives at
  ``<cache_dir>/<name>-<content_key>.json``; the key is the SHA-256 of
  the unit's full configuration, so a config change is a new file and a
  killed sweep resumes by re-running only the missing keys. Unreadable
  or truncated files (a kill mid-write, though writes are atomic) are
  treated as misses and re-run.
* **Execution.** Missing units run in a ``concurrent.futures`` process
  pool (``jobs > 1``) or inline (``jobs <= 1``). Workers seed numpy's
  global RNG from the unit's content key before running, so a unit's
  result is independent of which process runs it and of whatever ran
  before it — ``--jobs 8`` writes byte-identical JSON to ``--jobs 1``.
* **Collection.** Results are collected and written by the parent in
  the spec-list order (never completion order), with sorted keys and
  ``allow_nan=False``; ordering and bytes are deterministic.

The archived document carries the unit's name/target/params alongside
the payload, so a results directory is self-describing for later
analysis (e.g. re-rendering a Pareto report without re-running).
"""

from __future__ import annotations

import json
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.experiments.io import _jsonable
from repro.runner.registry import UnitSpec, resolve_target

PathLike = Union[str, Path]

#: Default result archive, next to ``.cache/pretrained``.
DEFAULT_CACHE_DIR = Path(__file__).resolve().parents[3] / ".cache" / "results"

_SAFE_NAME = re.compile(r"[^A-Za-z0-9._-]+")


def execute_unit(spec: Union[UnitSpec, Dict[str, Any]]) -> Dict[str, Any]:
    """Run one unit and return its JSON-able payload.

    Module-level (and accepting a plain dict) so it pickles cleanly
    into pool workers under any start method. Seeds numpy's global RNG
    from the unit's content key first: the unit sees the same RNG
    stream whether it runs inline, first in a worker, or after twenty
    other units — the basis of the jobs-count-invariance guarantee.
    """
    if isinstance(spec, dict):
        spec = UnitSpec(**spec)
    np.random.seed(int(spec.content_key()[:8], 16))  # repro: allow(determinism) - the per-unit seeding itself
    result = resolve_target(spec.target)(**spec.params)
    payload: Dict[str, Any] = {"result": _jsonable(result)}
    if spec.render is not None:
        payload["rendered"] = resolve_target(spec.render)(result)
    return payload


@dataclass
class UnitOutcome:
    """One unit's result plus where it came from."""

    spec: UnitSpec
    key: str
    path: Path
    payload: Dict[str, Any]
    cached: bool

    @property
    def result(self) -> Any:
        return self.payload.get("result")

    @property
    def rendered(self) -> Optional[str]:
        return self.payload.get("rendered")


@dataclass
class SweepReport:
    """All outcomes of one :meth:`SweepRunner.run`, in spec order."""

    outcomes: List[UnitOutcome] = field(default_factory=list)

    @property
    def hits(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def misses(self) -> int:
        return len(self.outcomes) - self.hits

    @property
    def results(self) -> List[Any]:
        return [outcome.result for outcome in self.outcomes]

    def summary(self) -> str:
        """One-line cache accounting (the CI smoke greps this)."""
        return (
            f"results cache: {self.hits} hits, {self.misses} misses "
            f"({len(self.outcomes)} units)"
        )


class SweepRunner:
    """Executes units with content-hash caching and a process pool.

    Parameters
    ----------
    cache_dir:
        Result archive; defaults to the repo-level ``.cache/results``.
    jobs:
        Worker processes for missing units. ``1`` (default) runs
        inline in the parent — results are byte-identical either way.
    """

    def __init__(self, cache_dir: Optional[PathLike] = None, jobs: int = 1):
        self.cache_dir = Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE_DIR
        self.jobs = max(1, int(jobs))

    # ------------------------------------------------------------------
    def result_path(self, spec: UnitSpec) -> Path:
        """Cache location of one unit's result."""
        stem = _SAFE_NAME.sub("-", spec.name) or "unit"
        return self.cache_dir / f"{stem}-{spec.content_key()}.json"

    def _load_cached(self, path: Path) -> Optional[Dict[str, Any]]:
        """The archived payload, or ``None`` if absent/unreadable."""
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(document, dict) or "payload" not in document:
            return None
        return document["payload"]

    def _store(self, spec: UnitSpec, key: str, path: Path, payload: Dict) -> None:
        """Atomically archive one unit's result (write-then-rename)."""
        document = {
            "unit": spec.name,
            "target": spec.target,
            "params": spec.params,
            "render": spec.render,
            "key": key,
            "payload": payload,
        }
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
        tmp.write_text(text)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[UnitSpec]) -> SweepReport:
        """Bring every unit's result into the cache; report in order."""
        entries = [(spec, spec.content_key(), self.result_path(spec)) for spec in specs]

        cached: Dict[int, Dict[str, Any]] = {}
        missing: List[int] = []
        for index, (_, _, path) in enumerate(entries):
            payload = self._load_cached(path)
            if payload is None:
                missing.append(index)
            else:
                cached[index] = payload

        computed: Dict[int, Dict[str, Any]] = {}

        def _collect(index: int, payload: Dict[str, Any]) -> None:
            # Archive immediately: results computed before a kill or a
            # sibling unit's failure must survive for the resume.
            computed[index] = payload
            spec, key, path = entries[index]
            self._store(spec, key, path, payload)

        if missing:
            if self.jobs == 1 or len(missing) == 1:
                for index in missing:
                    _collect(index, execute_unit(entries[index][0]))
            else:
                workers = min(self.jobs, len(missing))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    futures = [
                        (index, pool.submit(execute_unit, entries[index][0]))
                        for index in missing
                    ]
                    # Collect in submission order — deterministic
                    # regardless of completion order.
                    for index, future in futures:
                        _collect(index, future.result())

        outcomes = [
            UnitOutcome(
                spec=spec,
                key=key,
                path=path,
                payload=cached[index] if index in cached else computed[index],
                cached=index in cached,
            )
            for index, (spec, key, path) in enumerate(entries)
        ]
        return SweepReport(outcomes=outcomes)
