"""Synchronous serving facade suitable for embedding.

:class:`ServingSession` wires a source to one
:class:`~repro.serve.pool.EnginePool` and exposes the blocking calls an
application wants: ``predict`` / ``predict_batch`` /
``predict_labels``, ``warmup``, graceful ``drain``/``close`` and a
context-manager protocol.

The source is resolved once:

* a path is read and hashed once through the content-hash
  :class:`~repro.serve.artifact.ArtifactCache` (default
  :data:`~repro.serve.artifact.DEFAULT_CACHE`);
* an in-memory :class:`~repro.serve.artifact.ServingArtifact` gets a
  private cache when none is given, so lease accounting still
  balances without polluting the process-wide cache;
* a bare model gets one float thread engine serving it as given.

Artifact-backed engines follow the cache's **copy-on-lease** protocol:
every engine — thread or process-twin, initial, scale-up or
replacement — serves a private clone of the cached prototype
(:meth:`~repro.serve.artifact.ArtifactCache.lease`), so any number of
sessions and engines serve one cached artifact concurrently with zero
shared mutable state. The pool owns the leases and releases them on
``close()``.

:func:`resolve_policy` holds every rule about how the
:class:`ServeConfig` fan-out knobs combine; the CLI, the gateway
registry and the replay units call it instead of re-checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.nn.module import Module
from repro.serve.artifact import DEFAULT_CACHE, ArtifactCache, ServingArtifact
from repro.serve.engine import InferenceEngine, PendingPrediction, ServeStats
from repro.serve.pool import AutoscalePolicy, EnginePool, ThreadPlacement
from repro.serve.procpool import ProcessPlacement


@dataclass(frozen=True)
class ServeConfig:
    """Engine knobs of a session — the one place a serving field, its
    default and its meaning are written.

    The gateway's :class:`~repro.gateway.registry.ArtifactSpec` extends
    this class, both placements read it whole, and the CLI's serving
    flags build it. Three fields decide the fan-out — ``pool``,
    ``engines``/``workers`` and ``autoscale`` — and
    :func:`resolve_policy` turns them into the pool's
    :class:`~repro.serve.pool.AutoscalePolicy`. Fan-out, autoscaling
    and process workers need an artifact (or path) source — engines
    are leased clones.
    """

    batch_window_s: float = 0.002
    """How long a batch formed from a backlog waits to fill; a request
    reaching an idle engine runs at once."""

    max_batch_size: int = 16
    """The most requests one forward serves."""

    record_batches: bool = False
    """Keep each executed batch's request ids, so
    :func:`~repro.serve.replay.verify_replay` can re-run it (unbounded
    growth: for tests and verification, not long-lived servers)."""

    autostart: bool = True
    """Start the engines with the session (else :meth:`ServingSession.start`)."""

    engines: int = 1
    """The thread fan-out; stays at its default under ``pool="process"``."""

    autoscale: Optional[AutoscalePolicy] = None
    """Grow and shrink the pool between the policy's
    ``min_engines``/``max_engines`` from observed queue depth, under
    either pool kind. The count field then stays at its default or
    agrees with ``min_engines``."""

    backend: str = "float"
    """The execution path: ``"float"`` serves the reconstructed-weight
    model; ``"integer"`` serves the packed CQW1 codes with integer MACs
    (:mod:`repro.serve.plan` — requires an artifact source, and
    answers agree with the float backend within the derived rescale
    bound checked by :func:`~repro.serve.replay.verify_replay`)."""

    max_pending: Optional[int] = None
    """Each engine's budget of admitted-but-unanswered work: a submit
    beyond it raises :class:`~repro.serve.engine.QueueFull` (counted in
    ``ServeStats.rejected``) instead of growing the queue — the
    load-shedding contract the gateway maps to HTTP 429. ``None`` keeps
    the queue unbounded."""

    pool: str = "thread"
    """Where engines run: ``"thread"`` serves in-process worker threads;
    ``"process"`` serves from worker processes mapping one
    shared-memory copy of the artifact
    (:class:`~repro.serve.procpool.ProcessPlacement`) — true parallel
    forwards instead of GIL-shared ones."""

    workers: int = 2
    """The process fan-out; stays at its default under ``pool="thread"``."""


def resolve_policy(config: ServeConfig, bare_model: bool = False) -> AutoscalePolicy:
    """The engine-count policy ``config`` asks for, or ``ValueError``.

    Every combination rule of the fan-out knobs lives here, so no
    field set away from its default is ever silently ignored. A fixed
    fan-out of N becomes ``AutoscalePolicy(min_engines=N,
    max_engines=N)``. ``bare_model`` adds the rules of a bare-model
    source: one float thread engine.
    """
    if config.backend not in ("float", "integer"):
        raise ValueError(
            f"unknown serving backend {config.backend!r}; "
            "expected 'float' or 'integer'"
        )
    if config.pool not in ("thread", "process"):
        raise ValueError(
            f"unknown pool kind {config.pool!r}; expected 'thread' or 'process'"
        )
    if config.engines < 1:
        raise ValueError(f"engines must be >= 1, got {config.engines}")
    if config.workers < 1:
        raise ValueError(f"workers must be >= 1, got {config.workers}")
    if config.pool == "process":
        if config.engines != 1:
            raise ValueError(
                "process sessions take their fan-out from "
                "ServeConfig.workers; leave engines at 1"
            )
        knob, count, default = "workers", config.workers, ServeConfig.workers
    else:
        if config.workers != ServeConfig.workers:
            raise ValueError(
                "ServeConfig.workers sizes a process pool; thread sessions "
                "take their fan-out from engines (or set pool='process')"
            )
        knob, count, default = "engines", config.engines, ServeConfig.engines
    policy = config.autoscale
    if policy is None:
        policy = AutoscalePolicy(min_engines=count, max_engines=count)
    elif count not in (default, policy.min_engines):
        raise ValueError(
            f"autoscaled sessions take their engine bounds from "
            f"AutoscalePolicy; {knob}={count} disagrees with "
            f"min_engines={policy.min_engines} (leave {knob} at {default} "
            "or match it)"
        )
    if bare_model:
        if config.pool != "thread":
            raise ValueError(
                "a process session cannot serve a bare model — workers map "
                "the serialized artifact; serve an artifact (or path) source"
            )
        if config.backend != "float":
            raise ValueError(
                "a bare-model session has no packed codes to execute; the "
                "integer backend needs an artifact (or path) source"
            )
        if policy.max_engines != 1:
            raise ValueError(
                "a bare-model session cannot fan out (one model, one owner); "
                "serve an artifact to use more engines or autoscaling"
            )
    return policy


class ServingSession:
    """Blocking facade over an engine pool serving one artifact.

    ``source`` may be an artifact file path (leased through ``cache``,
    default the process-wide :data:`~repro.serve.artifact.DEFAULT_CACHE`),
    an already-loaded :class:`ServingArtifact` (leased through ``cache``,
    default a private one), or a bare model for ad-hoc serving
    (``warmup`` then needs an explicit example input, and the session
    cannot fan out).
    """

    def __init__(
        self,
        source: Union[str, Path, ServingArtifact, Module],
        config: Optional[ServeConfig] = None,
        cache: Optional[ArtifactCache] = None,
    ):
        config = config if config is not None else ServeConfig()
        bare = isinstance(source, Module)
        policy = resolve_policy(config, bare_model=bare)
        self.config = config
        self._closed = False
        """Set once a close() sweep has fully succeeded — later calls
        are contractual no-ops (see :meth:`close`)."""
        first = None
        if bare:
            self.artifact: Optional[ServingArtifact] = None
            cache = None
        elif isinstance(source, (str, Path, ServingArtifact)):
            if cache is None:
                cache = DEFAULT_CACHE if isinstance(source, (str, Path)) else ArtifactCache()
            # The first engine's lease reads and hashes a path once;
            # every later engine leases the parsed artifact (no I/O).
            first = cache.lease(source, backend=config.backend)
            self.artifact = first.artifact
        else:
            raise TypeError(
                f"source must be a path, ServingArtifact or Module, "
                f"got {type(source)}"
            )
        self.cache = cache
        """The cache every engine leases through (``None`` for a bare model)."""
        placement_type = ProcessPlacement if config.pool == "process" else ThreadPlacement
        try:
            placement = placement_type(
                source if bare else self.artifact, cache, config, first_lease=first
            )
            self._pool = EnginePool(placement, policy, autostart=config.autostart)
        except BaseException:
            # The pool owns its leases once built; until then the first
            # one is ours to return (release is idempotent).
            if first is not None:
                first.release()
            raise
        if self.artifact is not None:
            for engine in self._pool.engines:
                engine.annotate_artifact(
                    self.artifact.nbytes,
                    self.artifact.payload_nbytes,
                    self.artifact.sidecar_nbytes,
                )

    # ------------------------------------------------------------------
    @property
    def pool(self) -> EnginePool:
        return self._pool

    @property
    def engines(self) -> Tuple[InferenceEngine, ...]:
        """Every engine of the session, pool order."""
        return self._pool.engines

    @property
    def engine(self) -> InferenceEngine:
        """The engine of a single-engine session (the common case)."""
        if len(self._pool.engines) == 1:
            return self._pool.engines[0]
        raise RuntimeError(
            f"session fans out across {len(self._pool.engines)} engines; "
            "use .engines"
        )

    @property
    def models(self) -> Tuple[Module, ...]:
        """The served model of every engine the session ever ran
        (``models[i]`` is owned by engine ``i``'s worker thread —
        indices are stable even after autoscaling replaces engines)."""
        return tuple(model for _, _, model in self._pool.engine_records())

    @property
    def model(self) -> Module:
        """The first engine's served model (owned by its worker thread)."""
        return self.models[0]

    def engine_records(self) -> List[Tuple[int, InferenceEngine, Module]]:
        """``(engine_index, engine, model)`` for every engine the
        session ever ran, including engines the autoscaler has since
        retired or replaced (their recorded batches stay verifiable)."""
        return self._pool.engine_records()

    @property
    def input_dtype(self) -> np.dtype:
        """The dtype inputs are coerced to before batching."""
        return self._pool.input_dtype

    @property
    def stats(self) -> ServeStats:
        """Aggregated snapshot across the session's engines."""
        return self._pool.stats

    def per_engine_stats(self) -> List[ServeStats]:
        """Unmerged per-engine snapshots, pool order."""
        return self._pool.per_engine_stats()

    # ------------------------------------------------------------------
    def submit(self, x) -> PendingPrediction:
        """Asynchronous enqueue (see :meth:`EnginePool.submit`)."""
        return self._pool.submit(x)

    def predict(self, x, timeout: Optional[float] = None) -> np.ndarray:
        """Logits for one example (blocking)."""
        return self._pool.predict(x, timeout=timeout)

    def predict_batch(self, xs, timeout: Optional[float] = None) -> np.ndarray:
        """Logits for a batch, one request per row so rows coalesce.

        Row order is preserved regardless of how the engines batched
        (or which pool engine answered) the requests.
        """
        xs = np.asarray(xs, dtype=self.input_dtype)
        if xs.ndim < 2:
            raise ValueError(
                f"predict_batch expects a batch (ndim >= 2), got shape {xs.shape}"
            )
        pendings = [self._pool.submit(row) for row in xs]
        return np.stack([pending.result(timeout) for pending in pendings])

    def predict_labels(self, xs, timeout: Optional[float] = None) -> np.ndarray:
        """Argmax class per row of a batch."""
        return self.predict_batch(xs, timeout=timeout).argmax(axis=1)

    def warmup(self, x=None, count: int = 1) -> None:
        """Run ``count`` throwaway predictions *per engine* to prime
        lazy state on every clone.

        Without an explicit example input, a zero image of the
        manifest's input shape is used (artifact-backed sessions only).
        """
        if x is None:
            if self.artifact is None:
                raise ValueError(
                    "warmup of a bare-model session needs an example input"
                )
            x = np.zeros(self.artifact.manifest.input_shape)
        for engine in self._pool.engines:
            for _ in range(max(1, count)):
                engine.predict(x)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._pool.start()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every in-flight request has been answered."""
        self._pool.drain(timeout=timeout)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the engines down (gracefully by default); the pool
        releases every lease.

        Idempotent by contract, not by luck: once a ``close()`` has
        succeeded, every later ``close()`` — any ``drain`` flag,
        including the implicit ``__exit__`` one — returns without
        touching the pool. A failure (a
        :class:`~repro.serve.engine.ShutdownTimeout` naming laggard
        engines, which keep their leases) leaves the session open, and
        the retried ``close()`` keeps waiting — see
        :meth:`EnginePool.close`.
        """
        if self._closed:
            return
        self._pool.close(drain=drain, timeout=timeout)
        self._closed = True

    def __enter__(self) -> "ServingSession":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)
