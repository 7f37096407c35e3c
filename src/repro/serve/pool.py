"""One supervised engine pool: a placement plus an autoscale policy.

:class:`EnginePool` is the only pool. It is built from two parts:

* a **placement** — the only code that knows where an engine runs.
  :class:`ThreadPlacement` leases a clone per engine and wraps it in an
  :class:`~repro.serve.engine.InferenceEngine` worker thread;
  :class:`~repro.serve.procpool.ProcessPlacement` spawns worker
  processes over one shared-memory copy of the artifact. A placement
  hands the pool ``(engine, model, lease)`` triples, and
  ``can_replace`` says whether it can stand up another engine after a
  death (a bare model cannot).
* an :class:`AutoscalePolicy` — a fixed pool of N engines is just
  ``AutoscalePolicy(min_engines=N, max_engines=N)``, which never makes
  a scaling decision.

The pool has one supervisor thread. Every ``policy.interval_s`` it
sweeps for dead engines (crash or :meth:`EnginePool.chaos_kill`):
death → orphans stripped → lease released → replacement spawned →
orphans re-dispatched to live engines, or failed loudly with
:class:`~repro.serve.engine.EngineDied`. No request is ever silently
dropped. Only when ``min_engines < max_engines`` does it also sample
queue depth and grow or shrink the rotation (hysteresis + cooldown via
:class:`AutoscaleDecider`).

Request identity: engine-local request ids collide across a pool, so
every :class:`~repro.serve.engine.PendingPrediction` returned here
carries ``engine_index`` — ``(engine_index, request_id)`` is the
global identity, which is how the replay verifier maps answers back to
the engine (and model clone) that produced them. Engine indices are
stable for the pool's lifetime: an engine that dies or is retired
keeps its index, and replacements get fresh ones.

The pool's ``stats`` property aggregates the per-engine counters with
:func:`~repro.serve.engine.combine_serve_stats` over **every engine
the pool ever ran** (retired and dead engines' traffic still counts);
``per_engine_stats()`` exposes the unmerged views for balance checks.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.module import Module
from repro.serve.artifact import ServingArtifact
from repro.serve.engine import (
    EngineClosed,
    EngineDied,
    InferenceEngine,
    PendingPrediction,
    QueueFull,
    ServeStats,
    ShutdownTimeout,
    combine_serve_stats,
)


class _EngineSlot:
    """One engine the pool ever ran, alive or not.

    ``index`` is the engine's stable pool-wide identity (what
    ``PendingPrediction.engine_index`` refers to); ``fate`` tracks why
    a slot left the rotation.
    """

    __slots__ = ("index", "engine", "model", "lease", "born_s", "retired_s", "fate")

    def __init__(self, index: int, engine, model: Module, lease=None):
        self.index = index
        self.engine = engine
        self.model = model
        self.lease = lease
        self.born_s = time.monotonic()
        self.retired_s: Optional[float] = None
        self.fate = "alive"  # alive | retired | died | closed


# ----------------------------------------------------------------------
# Policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AutoscalePolicy:
    """Queue-depth autoscaling thresholds with hysteresis.

    The supervisor samples mean queue depth per live engine every
    ``interval_s``. Depth at or above ``scale_up_depth`` adds an engine
    (up to ``max_engines``); depth at or below ``scale_down_depth``
    retires one (down to ``min_engines``). The gap between the two
    thresholds is the hysteresis band — inside it nothing happens — and
    ``cooldown_s`` must elapse after any scale event before the next,
    so an oscillating queue cannot flap the pool. With
    ``min_engines == max_engines`` the pool is fixed and the supervisor
    only sweeps for deaths.
    """

    min_engines: int = 1
    max_engines: int = 4
    scale_up_depth: float = 8.0
    scale_down_depth: float = 1.0
    cooldown_s: float = 0.25
    interval_s: float = 0.02

    def __post_init__(self):
        if self.min_engines < 1:
            raise ValueError(f"min_engines must be >= 1, got {self.min_engines}")
        if self.max_engines < self.min_engines:
            raise ValueError(
                f"max_engines ({self.max_engines}) must be >= "
                f"min_engines ({self.min_engines})"
            )
        if self.scale_down_depth >= self.scale_up_depth:
            raise ValueError(
                f"scale_down_depth ({self.scale_down_depth}) must be below "
                f"scale_up_depth ({self.scale_up_depth}) — the gap is the "
                "hysteresis band"
            )
        if self.cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {self.cooldown_s}")
        if self.interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {self.interval_s}")

    @property
    def scales(self) -> bool:
        """Whether the policy can ever change the engine count."""
        return self.min_engines < self.max_engines

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


class AutoscaleDecider:
    """The autoscaler's pure decision core (no threads, no engines).

    ``observe(depth, engines, now_s)`` returns ``"up"``, ``"down"`` or
    ``None``. Keeping it free of I/O makes the hysteresis behaviour
    unit-testable with synthetic depth sequences — the supervisor
    thread is just a loop feeding it real observations.
    """

    def __init__(self, policy: AutoscalePolicy):
        self.policy = policy
        self._last_event_s: Optional[float] = None

    def observe(self, depth: float, engines: int, now_s: float) -> Optional[str]:
        policy = self.policy
        if (
            self._last_event_s is not None
            and now_s - self._last_event_s < policy.cooldown_s
        ):
            return None
        if engines < policy.max_engines and depth >= policy.scale_up_depth:
            self._last_event_s = now_s
            return "up"
        if engines > policy.min_engines and depth <= policy.scale_down_depth:
            self._last_event_s = now_s
            return "down"
        return None


@dataclass(frozen=True)
class ScaleEvent:
    """One supervisor action, offset from pool construction."""

    at_s: float
    action: str  # "up" | "down" | "death" | "replace"
    engines: int
    """Live engines *after* the action."""
    queue_depth: float
    """Mean per-engine queue depth that triggered it (0 for deaths)."""
    engine_index: int
    """The slot added, retired or lost."""

    def to_dict(self) -> Dict[str, object]:
        return {
            "at_s": round(self.at_s, 4),
            "action": self.action,
            "engines": self.engines,
            "queue_depth": round(self.queue_depth, 2),
            "engine_index": self.engine_index,
        }


# ----------------------------------------------------------------------
# Placement: where an engine runs
# ----------------------------------------------------------------------
class ThreadPlacement:
    """In-process engines, one :class:`InferenceEngine` worker thread each.

    Artifact-backed: every engine — initial, scale-up or replacement —
    leases a private clone of ``source`` from ``cache``
    (copy-on-lease), so the placement can always build another.
    ``first_lease`` (an already-taken lease of the same artifact) is
    used for the first engine instead of a fresh one. ``config`` (a
    :class:`~repro.serve.session.ServeConfig`) gives the lease backend
    and every engine's batching and admission knobs.

    Bare models (``source`` is a :class:`Module` or a sequence of
    distinct ones): each model is served by exactly one engine and
    cannot be replaced — an engine assumes exclusive ownership of its
    model.
    """

    kind = "thread"

    def __init__(
        self,
        source: Union[ServingArtifact, Module, Sequence[Module]],
        cache,
        config,
        first_lease=None,
    ):
        self.cache = cache
        self.config = config
        self._first_lease = first_lease
        if isinstance(source, ServingArtifact):
            if cache is None:
                raise ValueError("an artifact placement leases through a cache")
            self._artifact = source
            self._models: List[Module] = []
            return
        self._artifact = None
        models = [source] if isinstance(source, Module) else list(source)
        if not models:
            raise ValueError("pool needs at least one model")
        if len(set(map(id, models))) != len(models):
            raise ValueError(
                "pool models must be distinct objects (lease one clone "
                "per engine; engines assume exclusive ownership)"
            )
        self._models = models

    @property
    def can_replace(self) -> bool:
        return self.cache is not None

    def spawn(self):
        """An unstarted engine plus the model it serves and its lease."""
        if self.cache is None:
            if not self._models:
                raise RuntimeError(
                    "every bare model already has its engine; a bare-model "
                    "placement cannot stand up another"
                )
            model, lease = self._models.pop(0), None
        else:
            lease, self._first_lease = self._first_lease, None
            if lease is None:
                lease = self.cache.lease(self._artifact, backend=self.config.backend)
            model = lease.model
        try:
            engine = InferenceEngine(
                model,
                batch_window_s=self.config.batch_window_s,
                max_batch_size=self.config.max_batch_size,
                record_batches=self.config.record_batches,
                autostart=False,
                max_pending=self.config.max_pending,
            )
        except BaseException:
            if lease is not None:
                lease.release()
            raise
        return engine, model, lease

    def detach(self, engine) -> None:
        """An engine left the rotation (death or retirement)."""

    def close(self) -> None:
        """Every engine is down; return an unused first lease."""
        if self._first_lease is not None:
            self._first_lease.release()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class EnginePool:
    """Round-robin fan-out over a supervised, optionally elastic, engine set.

    ``placement`` builds the engines (see :class:`ThreadPlacement` and
    :class:`~repro.serve.procpool.ProcessPlacement`); ``policy`` bounds
    their count. The pool owns every lease its placement hands out: a
    death, a scale-down and ``close()`` release them.

    * **death** — the slot leaves the rotation, its orphaned requests
      are stripped, its lease is released, a replacement is spawned
      (unless the pool is closing or the placement cannot replace),
      and the orphans are re-dispatched to live engines — or answered
      with :class:`EngineDied` if none can take them.
    * **scale up** — spawn one more engine (started iff the pool is).
    * **scale down** — the newest live engine is retired: removed from
      the rotation, drained, closed, lease released.

    ``chaos_kill()`` injects a worker death on demand (the resilience
    path's test hook — also exposed as ``repro serve --chaos``).
    """

    def __init__(self, placement, policy: AutoscalePolicy, autostart: bool = True):
        if policy.scales and not placement.can_replace:
            raise ValueError(
                "an autoscaled pool needs a placement that can build more "
                "engines (an artifact source, not a bare model)"
            )
        self.placement = placement
        self.policy = policy
        self._decider = AutoscaleDecider(policy)
        # A condition, so submitters can wait out a replacement in flight.
        self._lock = threading.Condition(threading.Lock())
        self._started = bool(autostart)  # guarded-by: _lock
        self._next = 0  # guarded-by: _lock
        self._slots: List[_EngineSlot] = []  # guarded-by: _lock
        self._live: List[_EngineSlot] = []  # guarded-by: _lock
        self._peak_engines = 0  # guarded-by: _lock
        self._events: List[ScaleEvent] = []  # guarded-by: _lock
        self._redispatched = 0  # guarded-by: _lock
        self._replacing = 0  # guarded-by: _lock
        # A monotonic flag: set once by close(), never cleared.
        self._closing = False
        self._supervisor_error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        try:
            for _ in range(policy.min_engines):
                self._add_engine()
        except BaseException:
            for slot in self._slots_snapshot():
                try:
                    slot.engine.close(drain=False, timeout=5.0)
                # Best-effort teardown of a partially built pool: the
                # original construction error must propagate, not this.
                except Exception:  # repro: allow(bare-except)
                    pass
                if slot.lease is not None:
                    slot.lease.release()
            placement.close()
            raise
        self._born_s = self._slots_snapshot()[0].born_s
        if autostart:
            self._start_supervisor()

    def _slots_snapshot(self) -> List[_EngineSlot]:
        with self._lock:
            return list(self._slots)

    def _add_engine(self) -> _EngineSlot:
        """Spawn one more engine and put it in the rotation.

        The slot index is allocated from the all-time slot list, so
        retired and dead engines never have their identity reused. The
        started flag is read after enrolling: a concurrent ``start()``
        either saw this slot or had already set the flag read here.
        """
        engine, model, lease = self.placement.spawn()
        with self._lock:
            slot = _EngineSlot(len(self._slots), engine, model, lease)
            self._slots.append(slot)
            self._live.append(slot)
            self._peak_engines = max(self._peak_engines, len(self._live))
            started = self._started
        if started:
            engine.start()
        return slot

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def supports_chaos(self) -> bool:
        """Whether a killed engine can be replaced (the placement can
        build another), so :meth:`chaos_kill` ends in recovery."""
        return self.placement.can_replace

    @property
    def peak_engines(self) -> int:
        """Most engines ever simultaneously live."""
        with self._lock:
            return self._peak_engines

    def scale_events(self) -> List[ScaleEvent]:
        """Scaling/death event log."""
        with self._lock:
            return list(self._events)

    def describe_scaling(self) -> Dict[str, object]:
        """JSON-able scaling and supervision report, one shape for every
        pool (``enabled`` says whether the policy can scale)."""
        stats = self.stats
        return {
            "enabled": self.policy.scales,
            "placement": self.placement.kind,
            "policy": self.policy.to_dict(),
            "engines": len(self),
            "peak_engines": self.peak_engines,
            "scale_ups": stats.scale_ups,
            "scale_downs": stats.scale_downs,
            "engine_deaths": stats.engine_deaths,
            "redispatched": stats.redispatched,
            "events": [event.to_dict() for event in self.scale_events()],
            "engine_lifetimes_s": self.engine_lifetimes_s(),
        }

    @property
    def engines(self) -> Tuple[InferenceEngine, ...]:
        """Engines currently in the rotation (live), pool order."""
        with self._lock:
            return tuple(slot.engine for slot in self._live)

    def __len__(self) -> int:
        with self._lock:
            return len(self._live)

    def engine_records(self) -> List[Tuple[int, InferenceEngine, Module]]:
        """``(engine_index, engine, model)`` for every engine the pool
        ever ran — including retired and dead ones, whose recorded
        batches and stats remain readable. This is what replay
        verification iterates: traffic served by an engine that later
        left the rotation still has to replay bit-exact."""
        return [(slot.index, slot.engine, slot.model) for slot in self._slots_snapshot()]

    def engine_lifetimes_s(self) -> List[Dict[str, object]]:
        """Birth/retirement offsets (seconds since pool construction)
        and fate of every engine the pool ever ran."""
        with self._lock:
            born0 = self._slots[0].born_s if self._slots else 0.0
            return [
                {
                    "engine": slot.index,
                    "born_s": slot.born_s - born0,
                    "retired_s": (
                        None if slot.retired_s is None else slot.retired_s - born0
                    ),
                    "fate": slot.fate,
                }
                for slot in self._slots
            ]

    @property
    def input_dtype(self) -> np.dtype:
        """The served models' compute dtype (identical across clones)."""
        with self._lock:
            return self._slots[0].engine.input_dtype

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    def submit(self, x) -> PendingPrediction:
        """Enqueue one input on the next live engine (round-robin).

        If the rotation changes underneath us (an engine died or was
        retired between picking it and submitting), the next live
        engine is tried; :class:`EngineClosed` propagates only when no
        live engine accepts. An engine at its ``max_pending`` budget is
        likewise skipped for the next one — :class:`QueueFull`
        propagates only once every live engine has shed the request,
        so the pool's effective admission budget is the sum of its
        engines'. A dead engine never fails the caller while the pool
        can replace it: submit waits for a replacement in flight, or
        sweeps the death itself.
        """
        attempts = 0
        full = 0
        last_full: Optional[QueueFull] = None
        swept = False
        while True:
            with self._lock:
                # A dead engine's replacement is being built: wait for
                # it to join the rotation rather than fail the caller.
                while self._replacing and (not self._live or attempts > len(self._live)):
                    self._lock.wait()
                    attempts = 0
                if not self._live:
                    raise EngineClosed("pool has no live engines")
                refused = attempts > len(self._live)
                if refused and (swept or self._closing):
                    raise EngineClosed("pool is closed")
                if full >= len(self._live):
                    raise last_full
                if not refused:
                    slot = self._live[self._next % len(self._live)]
                    self._next += 1
            if refused:
                # Every live engine refused: a dead engine the
                # supervisor has not swept yet turns submits away.
                # Sweep — and replace — here rather than strand the
                # caller.
                swept = True
                attempts = 0
                self._sweep_deaths()
                continue
            try:
                pending = slot.engine.submit(x)
            except EngineClosed:
                attempts += 1
                continue
            except QueueFull as exc:
                full += 1
                last_full = exc
                continue
            pending.engine_index = slot.index
            return pending

    def predict(self, x, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous single prediction through the pool."""
        return self.submit(x).result(timeout)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every live engine and the supervisor (idempotent)."""
        with self._lock:
            live = list(self._live)
            self._started = True
        for slot in live:
            slot.engine.start()
        self._start_supervisor()

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every live engine has answered its queued work.

        With a ``timeout``, an expired pool deadline raises
        :class:`TimeoutError` immediately, naming the engines that were
        never waited on — later engines are not polled with zero-second
        "waits" that can only misattribute the timeout to them.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            live = list(self._live)
        for position, slot in enumerate(live):
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    unreached = [s.index for s in live[position:]]
                    raise TimeoutError(
                        f"pool drain deadline ({timeout} s) expired before "
                        f"engines {unreached} were waited on"
                    )
            slot.engine.drain(timeout=remaining)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the supervisor, rescue any last orphans, shut every
        engine down, release the leases, then close the placement; the
        ``timeout`` bounds the whole pool.

        Failure handling, in order of precedence:

        * An engine whose ``close()`` raises something other than
          :class:`ShutdownTimeout` does **not** abort the sweep — the
          remaining engines are still closed (leaking their workers
          because an unrelated engine failed would be strictly worse),
          and the first such failure is re-raised afterwards.
        * Engines that outlive their join window are collected; if the
          pool deadline expires before an engine is even reached, it is
          named as unreached rather than polled with a zero-second
          join. Either way a single :class:`ShutdownTimeout` naming
          them is raised — the pool is then *not* closed, and a later
          ``close()`` keeps waiting, mirroring the single-engine
          contract.

        A lease is released once its engine is no longer serving the
        clone, so a laggard keeps its lease until a retried ``close()``
        succeeds; the placement (for processes: the shared segment) is
        closed only once every engine is down.
        """
        self._closing = True
        self._stop.set()
        supervisor = self._supervisor
        if supervisor is not None and supervisor.is_alive():
            supervisor.join()
        # Final death sweep without replacement: orphans are
        # re-dispatched to the engines we are about to drain-close (they
        # still answer their queues), or failed loudly if none is live.
        self._sweep_deaths(replace=False)
        deadline = None if timeout is None else time.monotonic() + timeout
        slots = self._slots_snapshot()
        laggards: List[int] = []
        unreached: List[int] = []
        failures: List[Tuple[int, BaseException]] = []
        for position, slot in enumerate(slots):
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    unreached = [s.index for s in slots[position:]]
                    break
            try:
                slot.engine.close(drain=drain, timeout=remaining)
            except ShutdownTimeout:
                laggards.append(slot.index)
                continue
            except Exception as exc:
                failures.append((slot.index, exc))
            else:
                with self._lock:
                    if slot.fate == "alive":
                        slot.fate = "closed"
                        slot.retired_s = time.monotonic()
            if slot.lease is not None:
                slot.lease.release()
        if failures:
            index, first = failures[0]
            if len(failures) > 1 or laggards or unreached:
                others = [i for i, _ in failures[1:]]
                note = (
                    f"while closing the pool: engine {index} failed"
                    + (f"; engines {others} also failed" if others else "")
                    + (f"; engines {laggards} timed out" if laggards else "")
                    + (f"; engines {unreached} never reached" if unreached else "")
                )
                if hasattr(first, "add_note"):
                    first.add_note(note)
            raise first
        if laggards or unreached:
            raise ShutdownTimeout(
                f"pool close deadline ({timeout} s) expired: "
                f"engines {laggards} still running"
                + (f", engines {unreached} never reached" if unreached else "")
                + "; call close() again to keep waiting"
            )
        self.placement.close()
        if self._supervisor_error is not None:
            error = self._supervisor_error
            self._supervisor_error = None
            raise RuntimeError("pool supervisor died mid-run") from error

    def __enter__(self) -> "EnginePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------
    def _start_supervisor(self) -> None:
        if self._supervisor is not None or self._closing:
            return
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor", daemon=True
        )
        self._supervisor.start()

    def _supervise(self) -> None:
        while not self._stop.wait(self.policy.interval_s):
            try:
                self._sweep_deaths()
                if self.policy.scales:
                    self._consider_scaling()
            except BaseException as exc:
                # A broken supervisor must not die silently: remember
                # the failure (close() re-raises it) and stop driving.
                self._supervisor_error = exc
                return

    def _sweep_deaths(self, replace: bool = True) -> None:
        with self._lock:
            live = list(self._live)
        for slot in live:
            if slot.engine.worker_died:
                self._handle_death(slot, replace=replace)

    def _leave_rotation_locked(self, slot: _EngineSlot, fate: str, now: float) -> int:
        """Take a live slot out of the rotation; live engines after."""
        self._live.remove(slot)
        slot.fate = fate
        slot.retired_s = now
        return len(self._live)

    def _record(self, action: str, engines: int, depth: float, index: int) -> None:
        event = ScaleEvent(time.monotonic() - self._born_s, action, engines, depth, index)
        with self._lock:
            self._events.append(event)

    def _handle_death(self, slot: _EngineSlot, replace: bool = True) -> None:
        replace = replace and not self._closing and self.placement.can_replace
        with self._lock:
            if slot not in self._live:
                return
            engines_now = self._leave_rotation_locked(slot, "died", time.monotonic())
            self._replacing += replace
        orphans = slot.engine.take_orphans()
        self.placement.detach(slot.engine)
        if slot.lease is not None:
            slot.lease.release()
        self._record("death", engines_now, 0.0, slot.index)
        replace_error: Optional[BaseException] = None
        if replace:
            try:
                new_slot = self._add_engine()
            except Exception as exc:
                # A failed replacement must not strand the orphans —
                # re-dispatch to whatever is still live (or fail each
                # loudly below), then surface the failure.
                replace_error = exc
            else:
                self._record("replace", len(self), 0.0, new_slot.index)
            finally:
                with self._lock:
                    self._replacing -= 1
                    self._lock.notify_all()
        for request in orphans:
            self._redispatch(slot.index, request)
        if replace_error is not None:
            raise replace_error

    def _redispatch(self, dead_index: int, request) -> None:
        """Re-dispatch one orphaned request of a dead engine.

        Tries live engines round-robin via ``engine.adopt`` (the
        request keeps its pending — the original caller's handle); if
        none accepts, the pending is failed loudly with
        :class:`EngineDied`. Either way the request is accounted for —
        never silently dropped.
        """
        attempts = 0
        while True:
            with self._lock:
                if not self._live or attempts > len(self._live):
                    slot = None
                else:
                    slot = self._live[self._next % len(self._live)]
                    self._next += 1
            if slot is None:
                request.pending._finish(
                    error=EngineDied(
                        f"engine {dead_index} died and its request could "
                        "not be re-dispatched (no live engine accepted it)"
                    )
                )
                return
            # Set before adopting: the new engine may answer at once, and
            # the caller reads the index as soon as result() returns.
            request.pending.engine_index = slot.index
            try:
                slot.engine.adopt(request)
            except EngineClosed:
                attempts += 1
                continue
            with self._lock:
                self._redispatched += 1
            return

    def chaos_kill(self, engine_index: Optional[int] = None) -> int:
        """Kill a live engine's worker abruptly; returns its index.

        The supervisor then detects the death, releases the lease,
        spawns a replacement and rescues the stranded requests — that
        whole path is what this hook exists to exercise.
        """
        if not self.supports_chaos:
            raise RuntimeError(
                "this pool cannot replace a killed engine (a bare-model "
                "placement); chaos needs an artifact source"
            )
        with self._lock:
            if not self._live:
                raise RuntimeError("no live engines to kill")
            if engine_index is None:
                slot = self._live[0]
            else:
                matches = [s for s in self._live if s.index == engine_index]
                if not matches:
                    raise ValueError(f"engine {engine_index} is not live")
                slot = matches[0]
        slot.engine.kill()
        return slot.index

    def _consider_scaling(self) -> None:
        with self._lock:
            live = list(self._live)
        if not live or self._closing:
            return
        depth = sum(slot.engine.queue_depth for slot in live) / len(live)
        action = self._decider.observe(depth, len(live), time.monotonic())
        if action == "up":
            slot = self._add_engine()
            self._record("up", len(self), depth, slot.index)
        elif action == "down":
            with self._lock:
                if len(self._live) <= self.policy.min_engines:
                    return
                slot = self._live[-1]  # newest first: LIFO keeps index 0 stable
                engines_now = self._leave_rotation_locked(
                    slot, "retired", time.monotonic()
                )
            self._record("down", engines_now, depth, slot.index)
            # Retired engines drain gracefully — a scale-down never
            # drops or delays already-accepted work.
            slot.engine.close(drain=True)
            self.placement.detach(slot.engine)
            if slot.lease is not None:
                slot.lease.release()

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServeStats:
        """Aggregated snapshot across every engine the pool ever ran,
        plus the supervisor's scale/death counters."""
        merged = combine_serve_stats(slot.engine.stats for slot in self._slots_snapshot())
        with self._lock:
            actions = [event.action for event in self._events]
            merged.redispatched = self._redispatched
        merged.scale_ups = actions.count("up")
        merged.scale_downs = actions.count("down")
        merged.engine_deaths = actions.count("death")
        return merged

    def per_engine_stats(self) -> List[ServeStats]:
        """Unmerged snapshots of every engine ever run, slot order
        (slot position == engine index)."""
        return [slot.engine.stats for slot in self._slots_snapshot()]
