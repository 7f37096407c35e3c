"""Batched artifact-serving inference engine.

:class:`InferenceEngine` owns a model and a thread-safe request queue
drained by a single worker thread with **dynamic micro-batching**:
queued requests are coalesced (up to ``max_batch_size``) into one
forward pass, amortizing the per-forward cost of the numpy stack across
requests exactly the way the incremental evaluator amortizes it across
search queries.

Correctness contract (the serving twin of the evaluator's bit-exact
contract): a request's prediction is **bit-exact** with running the
model directly on the batch the engine executed it in. With
``record_batches=True`` the engine keeps the request-id composition of
every executed batch so tests and ``repro serve --verify`` can replay
them and compare bitwise (`tests/test_serve_parity.py`).

Threading model: the worker thread is the only thread that touches the
model; ``submit``/``predict`` may be called from any number of threads.
:class:`ServeStats` mirrors :class:`repro.core.evaluator.EvalStats` —
cost and latency counters that ride along with every replay report.

Both placements — this thread engine and the process worker behind
:class:`~repro.serve.procpool.ProcessWorkerHandle` — share the private
``_EngineCore`` (admission through close), ``_collect_batches`` (which
rows share a batch) and ``_forward_batch`` (how a batch runs).
"""

from __future__ import annotations

import operator
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from typing import Deque, Dict, List, Optional, Tuple

#: Latency samples kept for percentile reporting (a bounded recency
#: window so long-lived servers don't grow per-request state; the
#: total/max/mean aggregates remain exact over all traffic).
LATENCY_WINDOW = 4096

import numpy as np

from repro.nn.module import Module
from repro.tensor.tensor import Tensor, no_grad


class EngineClosed(RuntimeError):
    """Raised when submitting to (or restarting) a closed engine."""


class RequestCancelled(RuntimeError):
    """Raised from ``result()`` when the engine shut down without
    running the request (``close(drain=False)``)."""


class QueueFull(RuntimeError):
    """Raised by ``submit`` when the engine's pending budget
    (``max_pending``) is exhausted — the request was **not** enqueued.

    This is load shedding, not failure: rejecting at the door keeps an
    overloaded engine's memory bounded instead of queueing without
    limit. Shed requests are counted in :attr:`ServeStats.rejected`
    and never appear in ``requests``. The gateway's HTTP front end
    turns this into a 429 with ``Retry-After``."""


class ShutdownTimeout(RuntimeError):
    """Raised by ``close(timeout=...)`` when the worker thread is still
    alive after the join window — the engine is **not** closed yet;
    call ``close()`` again (or with a longer timeout) to keep waiting."""


class EngineDied(RuntimeError):
    """The engine's worker thread died (crashed or chaos-killed).

    Raised from ``drain()`` on a dead engine, and delivered to any
    request that could not be rescued after a death — a dead engine
    never *silently* drops work: every orphaned request is either
    re-dispatched to a live engine or answered with this error."""


class _InjectedCrash(BaseException):
    """Chaos-kill signal (:meth:`InferenceEngine.kill`).

    Deliberately a ``BaseException`` so it sails through the worker's
    ``except Exception`` batch-failure handling exactly like a real
    worker death (segfault-equivalent) would — the batch is *not*
    answered, the thread dies, and recovery is entirely the
    supervisor's problem."""


def _model_input_dtype(model: Module) -> np.dtype:
    """The dtype the served model computes in: a compiled plan's
    ``input_dtype``, else its parameters' dtype.

    Inputs are coerced to this before batching, so the engine never
    silently upcasts (or downcasts) relative to a direct forward — the
    parity contract's replay must see the same bytes the worker saw.
    Parameter-free models default to float64, the stack's native dtype.
    Raises ``ValueError`` naming the first parameter whose dtype differs
    from the others': such a model has no one dtype to feed.
    """
    if getattr(model, "input_dtype", None) is not None:
        return model.input_dtype
    first = None
    for name, param in model.named_parameters():
        if first is None:
            first = (name, param.data.dtype)
        elif param.data.dtype != first[1]:
            raise ValueError(
                f"parameter {name!r} is {param.data.dtype} but {first[0]!r} "
                f"is {first[1]}; cast the model to one dtype to serve it"
            )
    return np.dtype(np.float64 if first is None else first[1])


@dataclass
class ServeStats:
    """Cost and latency counters of one engine (mirrors ``EvalStats``)."""

    requests: int = 0
    """Requests submitted (completed + failed + cancelled + pending)."""

    completed: int = 0
    """Requests answered with a prediction."""

    errors: int = 0
    """Requests that failed (forward raised, e.g. shape mismatch)."""

    cancelled: int = 0
    """Requests dropped by a non-draining shutdown."""

    rejected: int = 0
    """Requests shed at admission (``max_pending`` exhausted — they
    were never enqueued, so they are not part of ``requests``)."""

    forwards: int = 0
    """Model executions (one per batch, full or singleton)."""

    coalesced_forwards: int = 0
    """Forwards that served more than one request."""

    batched_requests: int = 0
    """Requests served by coalesced forwards."""

    max_batch_seen: int = 0
    max_queue_depth: int = 0
    """Most requests outstanding at once (admitted and not yet
    answered — queued or in flight), observed at admission; the count
    ``queue_depth`` and ``max_pending`` use."""

    total_forward_s: float = 0.0
    total_latency_s: float = 0.0
    """Summed submit-to-answer latency of completed requests."""

    max_latency_s: float = 0.0
    latencies_s: Deque[float] = field(
        default_factory=lambda: deque(maxlen=LATENCY_WINDOW), repr=False
    )
    """Latency samples of the most recent completed requests (bounded
    to :data:`LATENCY_WINDOW`, completion order)."""

    scale_ups: int = 0
    """Autoscaler scale-up events (pool-level; 0 on single engines)."""

    scale_downs: int = 0
    """Autoscaler scale-down events (pool-level)."""

    engine_deaths: int = 0
    """Worker deaths detected and recovered by the pool supervisor."""

    redispatched: int = 0
    """Orphaned requests re-dispatched from dead engines to live ones."""

    artifact_nbytes: int = 0
    """Total bytes of the served artifact (0 for bare-model engines)."""

    payload_nbytes: int = 0
    """CQW1 payload bytes of the served artifact."""

    sidecar_nbytes: int = 0
    """CQS1/CQS2 sidecar bytes of the served artifact."""

    backend: str = "float"
    """Execution backend of the served model (``"float"`` reconstructed
    weights, ``"integer"`` packed-code MACs; ``"mixed"`` after merging
    heterogeneous engines)."""

    acc_bits_used: int = 0
    """Widest signed integer accumulator any batch needed (integer
    backend with quantized activations; 0 on the float backend and on
    weight-only integer execution, whose accumulations are float)."""

    @property
    def served(self) -> int:
        """Requests that went through a forward (completed + errors)."""
        return self.completed + self.errors

    @property
    def mean_batch_size(self) -> float:
        """Mean batch occupancy — the amortization factor."""
        return self.served / self.forwards if self.forwards else 0.0

    @property
    def mean_latency_s(self) -> float:
        return self.total_latency_s / self.completed if self.completed else 0.0

    def latency_percentile(self, q: float) -> float:
        """Latency percentile (seconds) over the recent sample window."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_s), q))

    def snapshot(self) -> "ServeStats":
        """Immutable copy (the live counters keep accumulating)."""
        return replace(
            self,
            latencies_s=deque(self.latencies_s, maxlen=self.latencies_s.maxlen),
        )

    def summary(self) -> str:
        lines = [
            f"requests: {self.requests} ({self.completed} completed, "
            f"{self.errors} errors, {self.cancelled} cancelled)"
            + (f"; {self.rejected} shed at admission" if self.rejected else ""),
            f"forwards: {self.forwards} "
            f"(mean batch {self.mean_batch_size:.2f}, max {self.max_batch_seen}, "
            f"{self.coalesced_forwards} coalesced)",
            f"queue depth max: {self.max_queue_depth}",
            f"latency: mean {self.mean_latency_s * 1e3:.2f} ms, "
            f"p95 {self.latency_percentile(95) * 1e3:.2f} ms, "
            f"max {self.max_latency_s * 1e3:.2f} ms",
            f"forward wall: {self.total_forward_s:.3f} s",
        ]
        if self.backend != "float":
            lines.append(
                f"backend: {self.backend} (acc_bits used: {self.acc_bits_used})"
            )
        if self.scale_ups or self.scale_downs or self.engine_deaths:
            lines.append(
                f"autoscale: {self.scale_ups} up, {self.scale_downs} down, "
                f"{self.engine_deaths} deaths, {self.redispatched} redispatched"
            )
        if self.artifact_nbytes:
            lines.append(
                f"artifact: {self.artifact_nbytes} bytes "
                f"(payload {self.payload_nbytes}, sidecar {self.sidecar_nbytes})"
            )
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """Strict-JSON-able view of the counters (wire schema of the
        gateway's ``/v1/stats``): every counter by its field name, with
        the latency fields folded into ``latency_ms``. Floats are finite
        by construction — percentiles of an empty window are 0.0 — so
        the document dumps under ``allow_nan=False``."""
        document: Dict[str, object] = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("total_latency_s", "max_latency_s", "latencies_s")
        }
        document["mean_batch_size"] = float(self.mean_batch_size)
        document["latency_ms"] = {
            "mean": float(self.mean_latency_s * 1e3),
            "p50": float(self.latency_percentile(50) * 1e3),
            "p95": float(self.latency_percentile(95) * 1e3),
            "p99": float(self.latency_percentile(99) * 1e3),
            "max": float(self.max_latency_s * 1e3),
        }
        return document


#: Fields :func:`combine_serve_stats` takes the maximum of (the rest add).
_HIGH_WATER_FIELDS = frozenset({
    "max_batch_seen", "max_queue_depth", "max_latency_s", "acc_bits_used",
    "artifact_nbytes", "payload_nbytes", "sidecar_nbytes",
})


def combine_serve_stats(snapshots) -> "ServeStats":
    """Aggregate per-engine stat snapshots into one pool-level view.

    Counters and wall-clock sums add across engines; high-water marks
    take the maximum (engine queues are disjoint, so summing depths
    would describe a moment that never existed); the latency window
    takes an even share of each engine's recent samples, so one
    engine's full window cannot displace the others from the merged
    percentiles. Artifact byte figures take the max — a pool's engines
    serve clones of one artifact, so summing would multiply its size
    by the engine count.
    """
    snapshots = list(snapshots)
    window_share = max(1, LATENCY_WINDOW // max(1, len(snapshots)))
    merged = ServeStats()
    counters = [f.name for f in fields(ServeStats) if f.name not in ("latencies_s", "backend")]
    for stats in snapshots:
        for name in counters:
            combine = max if name in _HIGH_WATER_FIELDS else operator.add
            setattr(merged, name, combine(getattr(merged, name), getattr(stats, name)))
        merged.latencies_s.extend(list(stats.latencies_s)[-window_share:])
    backends = {stats.backend for stats in snapshots}
    if len(backends) == 1:
        merged.backend = backends.pop()
    elif backends:
        merged.backend = "mixed"
    return merged


class PendingPrediction:
    """Handle to one in-flight request (a minimal synchronous future)."""

    __slots__ = (
        "request_id",
        "engine_index",
        "latency_s",
        "service_s",
        "_event",
        "_value",
        "_error",
    )

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.engine_index = 0
        """Which pool engine serves this request (0 outside a pool);
        request ids are only unique per engine, so (engine_index,
        request_id) is the global identity. Both fields are rewritten
        if a pool re-dispatches the request after an engine death —
        read them after ``result()`` returns."""

        self.latency_s: Optional[float] = None
        self.service_s: Optional[float] = None
        """Forward wall-clock of the batch that served this request;
        ``latency_s - service_s`` is the time spent queued."""
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the prediction is ready; re-raises failures."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not answered within {timeout} s"
            )
        if self._error is not None:
            raise self._error
        return self._value

    def _finish(self, value=None, error=None, latency_s=None, service_s=None) -> None:
        self._value = value
        self._error = error
        self.latency_s = latency_s
        self.service_s = service_s
        self._event.set()


class _QueuedRequest:
    __slots__ = ("rid", "x", "pending", "enqueued_at")

    def __init__(self, rid: int, x: np.ndarray, enqueued_at: float):
        self.rid = rid
        self.x = x
        self.pending = PendingPrediction(rid)
        self.enqueued_at = enqueued_at


def _forward_batch(model, rows):
    """Run one batch: ``(outputs, error, service_s, acc_bits)``.

    Stacks the rows and runs the forward under ``no_grad``; an
    ``Exception`` becomes the whole batch's ``error``. ``acc_bits`` is
    the model's ``max_acc_bits()`` probe (integer backend) or 0. Both
    placements execute batches through this one function.
    """
    started = time.monotonic()
    outputs = None
    error: Optional[Exception] = None
    try:
        inputs = np.stack(rows)
        with no_grad():
            outputs = model(Tensor(inputs)).data
    except Exception as exc:  # answer the whole batch with the failure
        error = exc
    service_s = time.monotonic() - started
    probe = getattr(model, "max_acc_bits", None)
    return outputs, error, service_s, int(probe()) if probe is not None else 0


def _collect_batches(
    take, wait, answer, model, batch_window_s: float, max_batch_size: int,
    backlog: bool = False, clock=time.monotonic,
) -> None:
    """Serve rows from one source until it says stop: the batching rule
    of both placements.

    ``take()`` returns a ready ``(rid, x)`` row or ``None``;
    ``wait(deadline)`` blocks until a row may be ready or ``clock()``
    passes ``deadline`` (``None``: no deadline) and returns whether to
    stop. Each batch runs through :func:`_forward_batch` and goes out as
    ``answer(rids, outputs, error, service_s, acc_bits)``. The rule:

    * an idle worker runs a row at once, with the rows already ready;
    * a backlog — rows ready when a forward ends, read before its
      answer goes out so a client's follow-up is not one — waits up to
      ``batch_window_s`` to fill;
    * rows already received join the open batch, up to
      ``max_batch_size``; a full batch never waits;
    * rows held until ``start()`` count as a backlog (``backlog``);
    * a close answers the rows that came before it: ``wait`` says stop
      only once a close has left no row to take, which ends the open
      batch and then the collection.
    """
    head = None
    while True:
        if head is None:
            head = take()
            if head is None:
                if wait(None):
                    return
                continue
        batch = [head]
        deadline = clock() + (batch_window_s if backlog else 0.0)
        while len(batch) < max_batch_size:
            row = take()
            if row is not None:
                batch.append(row)
            elif clock() >= deadline or wait(deadline):
                break
        outcome = _forward_batch(model, [x for _rid, x in batch])
        head = take()
        backlog = head is not None
        answer([rid for rid, _x in batch], *outcome)


class _EngineCore:
    """The placement-independent half of an engine.

    Owns admission (input coercion, ``max_pending``), the table of
    outstanding requests, batch completion and its accounting, the
    orphan hand-off after a death, ``drain`` and the settling of
    leftovers at close. A subclass decides where forwards run —
    :class:`InferenceEngine` on a worker thread,
    :class:`~repro.serve.procpool.ProcessWorkerHandle` in a worker
    process. It receives each admitted request through
    :meth:`_enqueue_locked` (under ``_cond``) and :meth:`_ship` (after
    it), reports every executed batch through :meth:`_complete`, flags
    its worker's exit through :meth:`_note_exit`, and settles what is
    left once that worker is down with :meth:`_settle_leftovers`.

    A request is outstanding from admission until its answer has been
    delivered: ``queue_depth``, ``max_pending`` and
    ``ServeStats.max_queue_depth`` all count outstanding requests, and
    ``drain()`` returns only once every answer is in its future.
    """

    def __init__(
        self,
        input_dtype,
        backend: str,
        record_batches: bool,
        max_pending: Optional[int],
    ):
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.input_dtype = np.dtype(input_dtype)
        self.max_pending = None if max_pending is None else int(max_pending)
        self._record = bool(record_batches)  # immutable after construction
        self._cond = threading.Condition()
        self._outstanding: Dict[int, _QueuedRequest] = {}  # guarded-by: _cond
        self._stats = ServeStats(backend=backend)  # guarded-by: _cond
        self._batches: List[Tuple[int, ...]] = []  # guarded-by: _cond
        self._next_id = 0  # guarded-by: _cond
        self._started = False  # guarded-by: _cond
        self._closing = False  # guarded-by: _cond
        self._crashed = False  # guarded-by: _cond

    # ------------------------------------------------------------------
    # Placement hooks
    # ------------------------------------------------------------------
    def _enqueue_locked(self, request: _QueuedRequest) -> None:
        """Hand an admitted request to the worker (``_cond`` held)."""

    def _ship(self, request: _QueuedRequest) -> None:
        """Placement work for an admitted request that must run
        without ``_cond`` held (a pipe write may block)."""

    def _strip_locked(self) -> List[_QueuedRequest]:
        """Remove and return every unanswered request, in id order."""
        stripped = [r for r in self._outstanding.values() if not r.pending.done()]
        self._outstanding.clear()
        return stripped

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    def submit(self, x) -> PendingPrediction:
        """Enqueue one input; returns immediately with a handle.

        The input is coerced to the served model's own dtype
        (:data:`input_dtype`), not a hard-coded float64 — so a float32
        model is fed float32 and the replayed parity comparison sees
        exactly the bytes the worker batched. A closed or dead engine
        refuses with :class:`EngineClosed`; a full one sheds with
        :class:`QueueFull`.
        """
        array = np.asarray(x, dtype=self.input_dtype)
        request = _QueuedRequest(-1, array, time.monotonic())
        self._admit(request, shed=True)
        return request.pending

    def adopt(self, request: _QueuedRequest) -> None:
        """Enqueue an orphaned request taken from a dead engine.

        The request gets a fresh engine-local id (ids are engine-local;
        the dead engine's id space means nothing here) and its pending
        handle is remapped, keeping ``(engine_index, request_id)``
        globally meaningful after re-dispatch. Adoption deliberately
        bypasses ``max_pending``: the request was already admitted once,
        and shedding it now would silently drop accepted work.
        """
        self._admit(request, shed=False)

    def _admit(self, request: _QueuedRequest, shed: bool) -> None:
        with self._cond:
            if self._closing or self._crashed:
                raise EngineClosed("engine is closed")
            depth = len(self._outstanding)
            if shed and self.max_pending is not None and depth >= self.max_pending:
                self._stats.rejected += 1
                raise QueueFull(
                    f"engine has {depth} requests pending "
                    f"(max_pending={self.max_pending}); retry later"
                )
            request.rid = self._next_id
            request.pending.request_id = request.rid
            self._next_id += 1
            self._outstanding[request.rid] = request
            self._stats.requests += 1
            self._stats.max_queue_depth = max(self._stats.max_queue_depth, depth + 1)
            self._enqueue_locked(request)
            self._cond.notify_all()
        self._ship(request)

    def predict(self, x, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous single prediction."""
        return self.submit(x).result(timeout)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted request has been answered."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._outstanding:
                if self._crashed:
                    raise EngineDied(
                        "engine worker died with requests outstanding; "
                        "they will never drain"
                    )
                if not self._started and not self._closing:
                    raise RuntimeError(
                        "drain() on an engine that was never started; call start()"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("drain() timed out")
                self._cond.wait(remaining)

    # ------------------------------------------------------------------
    # Answer side
    # ------------------------------------------------------------------
    def _complete(
        self,
        rids,
        outputs: Optional[np.ndarray],
        error: Optional[BaseException],
        service_s: float,
        acc_bits: int,
    ) -> None:
        """Account for one executed batch, in a fixed order: answer
        every row, update the stats, record the batch's composition,
        then wake ``drain()``. The rows stay outstanding until all of
        them are answered, so a returning ``drain()`` has seen every
        answer."""
        with self._cond:
            batch = [self._outstanding[rid] for rid in rids]
        finished = time.monotonic()
        latencies = [finished - request.enqueued_at for request in batch]
        for index, request in enumerate(batch):
            if error is not None:
                request.pending._finish(
                    error=error, latency_s=latencies[index], service_s=service_s
                )
            else:
                request.pending._finish(
                    value=outputs[index].copy(),
                    latency_s=latencies[index],
                    service_s=service_s,
                )
        with self._cond:
            for rid in rids:
                self._outstanding.pop(rid, None)
            stats = self._stats
            stats.forwards += 1
            stats.total_forward_s += service_s
            stats.max_batch_seen = max(stats.max_batch_seen, len(batch))
            stats.acc_bits_used = max(stats.acc_bits_used, acc_bits)
            if len(batch) > 1:
                stats.coalesced_forwards += 1
                stats.batched_requests += len(batch)
            if error is not None:
                stats.errors += len(batch)
            else:
                stats.completed += len(batch)
                for latency in latencies:
                    stats.latencies_s.append(latency)
                    stats.total_latency_s += latency
                    stats.max_latency_s = max(stats.max_latency_s, latency)
            if self._record:
                self._batches.append(tuple(rids))
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # Death, orphans and shutdown
    # ------------------------------------------------------------------
    @property
    def worker_died(self) -> bool:
        """True once the worker has died without closing."""
        with self._cond:
            return self._crashed

    @property
    def queue_depth(self) -> int:
        """Requests admitted and not yet answered (autoscaler signal)."""
        with self._cond:
            return len(self._outstanding)

    def _note_exit(self) -> bool:
        """The worker stopped: unless a close is underway, that is a
        death. Wakes every waiter (``drain()``, the pool supervisor) and
        returns whether the engine is now marked dead."""
        with self._cond:
            self._crashed = self._crashed or not self._closing
            self._cond.notify_all()
            return self._crashed

    def take_orphans(self) -> List[_QueuedRequest]:
        """Strip every unanswered request off a dead engine.

        Returns the stranded requests in submission order and marks the
        engine closing so no new work lands here. The orphans keep
        their original ``enqueued_at``, so client-side latency spans the
        death and re-dispatch. The dead engine's ``requests`` counter is
        decremented by the orphan count: it never answered them, and
        the engine that adopts them counts them afresh.
        """
        with self._cond:
            self._closing = True
            orphans = self._strip_locked()
            self._stats.requests -= len(orphans)
            self._cond.notify_all()
        return orphans

    def _settle_leftovers(self, drain: bool) -> None:
        """Answer whatever the stopped worker never did.

        After a death, or a draining close (which leaves work behind
        only when the worker died), each request fails loudly with
        :class:`EngineDied` — closing a dead engine must not turn into
        a silent drop. After a non-draining close they are cancelled.
        """
        with self._cond:
            leftovers = [r for r in self._outstanding.values() if not r.pending.done()]
            died = self._crashed or drain
        for request in leftovers:
            request.pending._finish(
                error=EngineDied("engine worker died before answering this request")
                if died
                else RequestCancelled("engine closed before the request ran")
            )
        with self._cond:
            self._strip_locked()
            if died:
                self._stats.errors += len(leftovers)
            else:
                self._stats.cancelled += len(leftovers)
            self._cond.notify_all()

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ServeStats:
        """A consistent snapshot of the live counters."""
        with self._cond:
            return self._stats.snapshot()

    def annotate_artifact(
        self, nbytes: int, payload_nbytes: int, sidecar_nbytes: int
    ) -> None:
        """Record the served artifact's byte breakdown in the stats, so
        size figures ride along with every throughput/latency report."""
        with self._cond:
            self._stats.artifact_nbytes = int(nbytes)
            self._stats.payload_nbytes = int(payload_nbytes)
            self._stats.sidecar_nbytes = int(sidecar_nbytes)

    def executed_batches(self) -> List[Tuple[int, ...]]:
        """Request-id composition of every executed batch
        (``record_batches=True`` only)."""
        if not self._record:
            raise RuntimeError("engine was created with record_batches=False")
        with self._cond:
            return list(self._batches)


class InferenceEngine(_EngineCore):
    """Thread-safe request queue + dynamic micro-batching worker thread.

    ``model`` is switched to ``eval()`` and owned by the worker thread
    from then on. The other parameters mean what the
    :class:`~repro.serve.session.ServeConfig` fields of the same names
    do; ``autostart=False`` queues requests until :meth:`start`
    (deterministic batch composition — the benchmarks use this).
    """

    def __init__(
        self,
        model: Module,
        batch_window_s: float = 0.002,
        max_batch_size: int = 16,
        record_batches: bool = False,
        autostart: bool = True,
        max_pending: Optional[int] = None,
    ):
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if batch_window_s < 0:
            raise ValueError(f"batch_window_s must be >= 0, got {batch_window_s}")
        model.eval()
        super().__init__(
            _model_input_dtype(model),
            getattr(model, "serving_backend", "float"),
            record_batches,
            max_pending,
        )
        self._model = model
        self.batch_window_s = float(batch_window_s)
        self.max_batch_size = int(max_batch_size)
        self._queue: Deque[Tuple[int, np.ndarray]] = deque()  # guarded-by: _cond
        self._drain_on_close = True  # guarded-by: _cond
        self._kill = False  # guarded-by: _cond
        self._thread: Optional[threading.Thread] = None  # guarded-by: _cond
        if autostart:
            self.start()

    def _enqueue_locked(self, request: _QueuedRequest) -> None:
        self._queue.append((request.rid, request.x))

    def _strip_locked(self) -> List[_QueuedRequest]:
        self._queue.clear()
        return super()._strip_locked()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the worker thread (idempotent)."""
        with self._cond:
            if self._closing:
                raise EngineClosed("engine is closed")
            if self._thread is not None:
                return
            # Rows queued before start() are a backlog the window fills.
            self._thread = threading.Thread(
                target=self._worker,
                args=(bool(self._queue),),
                name="repro-serve-worker",
                daemon=True,
            )
            self._thread.start()
            self._started = True

    def kill(self) -> None:
        """Chaos hook: make the worker thread die abruptly.

        The worker raises an internal ``BaseException`` at its next
        scheduling point — mid-batch-collection if one is open — so
        queued and in-flight requests are stranded exactly as a real
        worker death would strand them. Recovery (orphan re-dispatch,
        lease release, replacement) is the pool supervisor's job; a
        bare engine's orphans are settled loudly by :meth:`close`.
        """
        with self._cond:
            if self._thread is None:
                raise EngineClosed("kill() needs a started engine")
            self._kill = True
            self._cond.notify_all()

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut down. ``drain=True`` answers every queued request first;
        ``drain=False`` cancels them. Idempotent.

        With a ``timeout``, raises :class:`ShutdownTimeout` if the
        worker is still alive after the join window — the engine is not
        closed in that case, and a later ``close()`` keeps waiting.
        """
        with self._cond:
            self._closing = True
            self._drain_on_close = self._drain_on_close and drain
            draining = self._drain_on_close
            thread = self._thread
            self._cond.notify_all()
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                raise ShutdownTimeout(
                    f"engine worker still running after {timeout} s "
                    f"(draining={draining}); call close() again "
                    "to keep waiting"
                )
        elif draining:
            # Never started: answer the queue inline on the caller's thread.
            self._worker(backlog=False)
        self._settle_leftovers(draining)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker(self, backlog: bool) -> None:
        try:
            _collect_batches(
                self._take_row, self._wait_row, self._complete, self._model,
                self.batch_window_s, self.max_batch_size, backlog,
            )
        except BaseException as death:
            # Real crash or injected chaos kill: flag the death and wake
            # every waiter (drain(), the pool supervisor) before the
            # thread unwinds. Nothing is cleaned up here — stranded
            # requests are exactly the point. Injected kills stop at the
            # flag (the death is deliberate); anything else re-raises
            # into the thread excepthook so real bugs stay loud.
            self._note_exit()
            if not isinstance(death, _InjectedCrash):
                raise

    def _check_kill_locked(self) -> None:
        if self._kill:
            raise _InjectedCrash("chaos kill")

    def _take_row(self) -> Optional[Tuple[int, np.ndarray]]:
        """The queue's head; nothing once a non-draining close began."""
        with self._cond:
            self._check_kill_locked()
            if self._queue and (self._drain_on_close or not self._closing):
                return self._queue.popleft()
        return None

    def _wait_row(self, deadline: Optional[float]) -> bool:
        """Block until a row is queued, a close begins or ``deadline``
        passes; stop once closing leaves no row to take. A chaos kill
        lands at the next call."""
        with self._cond:
            self._check_kill_locked()
            if not self._queue and not self._closing:
                self._cond.wait(
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
            return self._closing and not (self._queue and self._drain_on_close)
