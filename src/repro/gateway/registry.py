"""Thread-safe multi-artifact registry behind the gateway.

:class:`ArtifactRegistry` maps artifact **names** to CQW1 sources and
lazily stands up one :class:`~repro.serve.session.ServingSession` per
name — through the content-hash :class:`~repro.serve.artifact.ArtifactCache`,
so two names pointing at the same bytes share one parsed artifact and
every engine leases a private clone. Each entry's
:class:`ArtifactSpec` *is* its serving configuration — it extends
:class:`~repro.serve.session.ServeConfig`, which documents every
field — plus its own **admission budget**: the most input rows
allowed admitted-but-unanswered at once, shed with
:class:`AdmissionRejected` (the gateway's HTTP 429) instead of growing
the queue without bound.

Unload is refcounted: :meth:`hold`/:meth:`release` bracket any
long-lived use of a session (the replay client's parity check, a
drain), and :meth:`unload` refuses while holds or admitted rows are
outstanding. ``close()`` tears everything down, reusing the serve
layer's ``close(timeout)`` / ``ShutdownTimeout`` semantics.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.serve.artifact import ArtifactCache, ServingArtifact
from repro.serve.session import ServeConfig, ServingSession, resolve_policy

#: Default per-artifact admission budget (input rows admitted but not
#: yet answered). Deliberately small: the gateway sheds early and the
#: client retries, instead of the server queueing unboundedly.
DEFAULT_PENDING_BUDGET = 256


class UnknownArtifact(KeyError):
    """The named artifact is not registered (HTTP 404)."""


class RegistryBusy(RuntimeError):
    """Unload refused: the entry has holds or admitted rows in flight."""


class AdmissionRejected(RuntimeError):
    """The artifact's pending budget is exhausted (HTTP 429).

    ``retry_after_s`` is the client back-off hint the gateway forwards
    as the ``Retry-After`` header."""

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


@dataclass(frozen=True, kw_only=True)
class ArtifactSpec(ServeConfig):
    """One registered artifact: a name, a source, an admission budget,
    and the :class:`~repro.serve.session.ServeConfig` fields it
    inherits (``autostart`` must stay ``True``: a registered session
    that never starts would hang every predict)."""

    name: str
    source: Union[str, Path, ServingArtifact]
    """CQW1 path (loaded through the cache) or an in-memory artifact."""

    pending_budget: int = DEFAULT_PENDING_BUDGET
    """Gateway-level budget: rows admitted but unanswered, per artifact."""

    retry_after_s: float = 1.0
    """Back-off hint sent with 429 responses for this artifact."""

    def describe(self) -> Dict[str, object]:
        """JSON-able static view (the ``/v1/artifacts`` entry core)."""
        return {
            "name": self.name,
            "source": (
                "<in-memory>"
                if isinstance(self.source, ServingArtifact)
                else str(self.source)
            ),
            "backend": self.backend,
            "engines": int(self.engines),
            "autoscale": (
                None if self.autoscale is None else self.autoscale.to_dict()
            ),
            "max_pending": (
                None if self.max_pending is None else int(self.max_pending)
            ),
            "pending_budget": int(self.pending_budget),
            "pool": self.pool,
            "workers": int(self.workers),
        }


class _Entry:
    """Registry bookkeeping for one artifact name."""

    def __init__(self, spec: ArtifactSpec):
        self.spec = spec
        self.session: Optional[ServingSession] = None  # guarded-by: _lock
        self.loading = False  # guarded-by: _lock
        self.load_done = threading.Event()
        self.load_error: Optional[BaseException] = None  # guarded-by: _lock
        self.holds = 0  # guarded-by: _lock
        self.pending_rows = 0  # guarded-by: _lock
        self.peak_pending = 0  # guarded-by: _lock
        self.admitted_rows = 0  # guarded-by: _lock
        self.rejected_rows = 0  # guarded-by: _lock
        self.unloads = 0  # guarded-by: _lock


class ArtifactRegistry:
    """Name → leased engine pool mapping with per-artifact admission."""

    def __init__(self, cache: Optional[ArtifactCache] = None):
        self._lock = threading.Lock()
        self._entries: Dict[str, _Entry] = {}  # guarded-by: _lock
        self._closing = False  # guarded-by: _lock
        self.cache = cache if cache is not None else ArtifactCache()
        """The content-hash artifact cache every session leases through
        (shared across entries, so two names over one file share one
        parsed artifact)."""

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, spec: ArtifactSpec, preload: bool = False) -> None:
        """Register ``spec`` under its name; optionally load it now.

        Names are unique — re-registering a live name raises; unload
        the old entry first. A source that is not a path or a
        :class:`~repro.serve.artifact.ServingArtifact`, or a spec whose
        serving fields conflict (:func:`~repro.serve.session.resolve_policy`),
        raises ``ValueError`` here, not at first use.
        """
        if not spec.name or "/" in spec.name:
            raise ValueError(
                f"artifact name {spec.name!r} must be non-empty and free of '/'"
            )
        if not isinstance(spec.source, (str, Path, ServingArtifact)):
            raise ValueError(
                "artifact source must be a CQW1 path or a ServingArtifact, "
                f"got {type(spec.source).__name__}"
            )
        if not spec.autostart:
            raise ValueError(
                "ArtifactSpec.autostart must stay True: the registry "
                "never starts a session, so its predicts would hang"
            )
        resolve_policy(spec)
        with self._lock:
            if self._closing:
                raise RuntimeError("registry is closed")
            if spec.name in self._entries:
                raise ValueError(f"artifact {spec.name!r} is already registered")
            self._entries[spec.name] = _Entry(spec)
        if preload:
            self.session(spec.name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def _entry(self, name: str) -> _Entry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise UnknownArtifact(
                f"artifact {name!r} is not registered"
            )
        return entry

    # ------------------------------------------------------------------
    # Lazy session loading
    # ------------------------------------------------------------------
    def session(self, name: str) -> ServingSession:
        """The live session for ``name``, building it on first use.

        Concurrent first calls build once: the loser waits for the
        winner's session (or its error). The build itself — file I/O,
        model reconstruction — runs outside the registry lock.
        """
        entry = self._entry(name)
        build = False
        with self._lock:
            if self._closing:
                raise RuntimeError("registry is closed")
            if entry.session is not None:
                return entry.session
            if not entry.loading:
                entry.loading = True
                entry.load_done.clear()
                entry.load_error = None
                build = True
        if not build:
            entry.load_done.wait()
            with self._lock:
                if entry.session is not None:
                    return entry.session
                error = entry.load_error
            raise RuntimeError(
                f"loading artifact {name!r} failed in a concurrent request"
            ) from error
        try:
            session = ServingSession(
                entry.spec.source, config=entry.spec, cache=self.cache
            )
        except BaseException as exc:
            with self._lock:
                entry.loading = False
                entry.load_error = exc
            entry.load_done.set()
            raise
        with self._lock:
            entry.session = session
            entry.loading = False
        entry.load_done.set()
        return session

    def loaded(self, name: str) -> bool:
        entry = self._entry(name)
        with self._lock:
            return entry.session is not None

    def spec(self, name: str) -> ArtifactSpec:
        """The registered (immutable) spec of ``name``."""
        return self._entry(name).spec

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def admit(self, name: str, rows: int) -> None:
        """Claim ``rows`` of the artifact's pending budget or shed.

        Raises :class:`AdmissionRejected` (→ HTTP 429) when the claim
        would exceed ``pending_budget``. Every successful admit MUST be
        balanced by :meth:`settle` once the rows are answered (or
        failed) — the gateway does this in a ``finally``.
        """
        if rows < 1:
            raise ValueError(f"admit needs at least one row, got {rows}")
        entry = self._entry(name)
        budget = entry.spec.pending_budget
        with self._lock:
            if entry.pending_rows + rows > budget:
                entry.rejected_rows += rows
                pending = entry.pending_rows
                raise AdmissionRejected(
                    f"artifact {name!r} has {pending} rows pending of a "
                    f"{budget}-row budget; {rows} more would exceed it — "
                    "retry later",
                    retry_after_s=entry.spec.retry_after_s,
                )
            entry.pending_rows += rows
            entry.admitted_rows += rows
            entry.peak_pending = max(entry.peak_pending, entry.pending_rows)

    def settle(self, name: str, rows: int) -> None:
        """Return ``rows`` of budget claimed by a matching :meth:`admit`."""
        entry = self._entry(name)
        with self._lock:
            if rows > entry.pending_rows:
                raise ValueError(
                    f"settle({rows}) exceeds the {entry.pending_rows} rows "
                    f"pending on {name!r} — admit/settle calls are unbalanced"
                )
            entry.pending_rows -= rows

    # ------------------------------------------------------------------
    # Refcounted unload
    # ------------------------------------------------------------------
    def hold(self, name: str) -> ServingSession:
        """Take a reference on the entry (blocks :meth:`unload`)."""
        session = self.session(name)
        entry = self._entry(name)
        with self._lock:
            entry.holds += 1
        return session

    def release(self, name: str) -> None:
        entry = self._entry(name)
        with self._lock:
            if entry.holds < 1:
                raise ValueError(f"release without hold on {name!r}")
            entry.holds -= 1

    def unload(
        self, name: str, drain: bool = True, timeout: Optional[float] = None
    ) -> bool:
        """Close ``name``'s session and drop the loaded state.

        The spec stays registered (a later request reloads through the
        cache — typically a hit). Refuses with :class:`RegistryBusy`
        while holds or admitted rows are outstanding. Returns whether a
        session was actually closed.
        """
        entry = self._entry(name)
        with self._lock:
            if entry.holds or entry.pending_rows:
                raise RegistryBusy(
                    f"artifact {name!r} has {entry.holds} holds and "
                    f"{entry.pending_rows} rows in flight; unload refused"
                )
            session = entry.session
            entry.session = None
            if session is not None:
                entry.unloads += 1
        if session is None:
            return False
        session.close(drain=drain, timeout=timeout)
        return True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> List[Dict[str, object]]:
        """The ``/v1/artifacts`` payload: spec + live state per entry."""
        with self._lock:
            entries = sorted(self._entries.items())
        documents = []
        for name, entry in entries:
            with self._lock:
                session = entry.session
            document = entry.spec.describe()
            document["loaded"] = session is not None
            if session is not None and session.artifact is not None:
                manifest = session.artifact.manifest
                document["manifest"] = manifest.to_dict()
                document["input_shape"] = [int(d) for d in manifest.input_shape]
                document["input_dtype"] = str(session.input_dtype)
                document["live_engines"] = len(session.engines)
            documents.append(document)
        return documents

    def admission_stats(self, name: str) -> Dict[str, object]:
        entry = self._entry(name)
        with self._lock:
            return {
                "budget": int(entry.spec.pending_budget),
                "pending": int(entry.pending_rows),
                "peak_pending": int(entry.peak_pending),
                "admitted": int(entry.admitted_rows),
                "rejected": int(entry.rejected_rows),
                "holds": int(entry.holds),
                "unloads": int(entry.unloads),
            }

    def stats_payload(self) -> Dict[str, object]:
        """The ``/v1/stats`` document: per-artifact serve stats,
        admission counters and the pool's ``describe_scaling()`` report,
        plus cache/lease accounting."""
        with self._lock:
            entries = sorted(self._entries.items())
        artifacts: Dict[str, object] = {}
        for name, entry in entries:
            with self._lock:
                session = entry.session
            document: Dict[str, object] = {
                "loaded": session is not None,
                "admission": self.admission_stats(name),
            }
            if session is not None:
                document["serve"] = session.stats.to_dict()
                document["engines"] = len(session.engines)
                document["scaling"] = session.pool.describe_scaling()
            artifacts[name] = document
        cache_stats = self.cache.stats
        return {
            "artifacts": artifacts,
            "cache": {
                "hits": int(cache_stats.hits),
                "misses": int(cache_stats.misses),
                "races": int(cache_stats.races),
                "evictions": int(cache_stats.evictions),
                "leases": int(cache_stats.leases),
                "releases": int(cache_stats.releases),
                "active_leases": int(self.cache.active_leases()),
            },
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Close every loaded session (graceful by default).

        Mirrors the pool contract: the first failure does not abort the
        sweep — every session is still closed — and is re-raised after.
        A :class:`~repro.serve.engine.ShutdownTimeout` from one session
        leaves it reloadable-by-retry exactly like the engine contract.
        """
        with self._lock:
            self._closing = True
            sessions = [
                (name, entry.session)
                for name, entry in sorted(self._entries.items())
                if entry.session is not None
            ]
        first_failure: Optional[BaseException] = None
        for _name, session in sessions:
            try:
                session.close(drain=drain, timeout=timeout)
            except BaseException as exc:
                if first_failure is None:
                    first_failure = exc
        if first_failure is not None:
            raise first_failure

    def __enter__(self) -> "ArtifactRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)
