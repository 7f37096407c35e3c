"""Process-backed serving: worker processes over zero-copy artifacts.

The thread-backed pools in :mod:`repro.serve.pool` multiply queueing
capacity but not compute — the pure-numpy forwards of every engine
contend on one GIL. :class:`ProcessEnginePool` moves each engine into
its own **worker process** behind the same
:class:`~repro.serve.pool.EnginePool` interface, so sessions, replay
drivers and the gateway cannot tell the difference while forwards run
truly in parallel.

Three design points carry the module:

* **Zero-copy artifact sharing.** The parent copies the artifact's
  serialized bytes into one
  :class:`~repro.serve.artifact.SharedArtifactSegment` (the only copy
  ever made) and workers attach by name, verify the content hash, and
  parse the CQW1/CQS2 container *in place* with ``np.frombuffer`` views
  over the mapping. N workers share one physical copy of the packed
  codes; each worker's reconstructed float weights (or compiled integer
  specs) are deliberately process-private. The parent owns the segment
  name and unlinks it on ``close()`` — after that, attaching the name
  fails, which is exactly what the shm-leak test asserts.

* **Pickle-free wire format.** Requests and answers travel over a
  duplex pipe as struct-framed binary messages
  (``Connection.send_bytes``/``recv_bytes``): fixed little-endian
  headers plus raw C-order array bytes. No pickle on the request path —
  nothing to deserialize-execute, no per-message protocol overhead
  beyond the struct header, and both ends stay bit-exact because the
  bytes on the wire *are* the array bytes the models see.

* **Crash supervision (the PR 6 chaos contract, across processes).**
  A supervisor thread sweeps for dead workers (SIGKILL'd, crashed, or
  chaos-killed via :meth:`ProcessEnginePool.chaos_kill`):
  death → detected → lease + shm attach accounting released →
  replacement spawned → orphaned requests re-dispatched to live
  workers — or failed loudly with
  :class:`~repro.serve.engine.EngineDied`. Never silently dropped.
  Executed-batch records live parent-side (derived from the answer
  stream), so a dead worker's batches remain replayable and
  :func:`~repro.serve.replay.verify_replay` still reaches full
  coverage after a mid-replay kill: the parent holds a bit-identical
  lease clone of every worker's model, and artifact reconstruction is
  deterministic, so the parent can replay worker-served batches
  bit-exactly.
"""

from __future__ import annotations

import os
import signal
import struct
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serve.artifact import ServingArtifact, SharedArtifactSegment
from repro.serve.engine import (
    EngineClosed,
    EngineDied,
    QueueFull,
    RequestCancelled,
    ServeStats,
    ShutdownTimeout,
    _model_input_dtype,
    _QueuedRequest,
)
from repro.serve.pool import EnginePool, ScaleEvent, _EngineSlot

# ----------------------------------------------------------------------
# Wire format (struct-framed, little-endian, no pickle)
# ----------------------------------------------------------------------
#: parent -> worker opcodes
_OP_PREDICT = 1
_OP_CLOSE = 2

#: worker -> parent opcodes
_MSG_READY = 0
_MSG_BATCH = 1
_MSG_CLOSED = 2
_MSG_FATAL = 3

_PREDICT_HEAD = "<BQB"  # op, rid, ndim
_BATCH_HEAD = "<BBdHI"  # op, status, service_s, acc_bits, count


def _encode_predict(rid: int, array: np.ndarray) -> bytes:
    """Frame one request: header + shape + raw C-order array bytes."""
    return (
        struct.pack(_PREDICT_HEAD, _OP_PREDICT, rid, array.ndim)
        + struct.pack(f"<{array.ndim}I", *array.shape)
        + array.tobytes()
    )


def _decode_predict(frame, dtype: np.dtype) -> Tuple[int, np.ndarray]:
    rid, ndim = struct.unpack_from("<QB", frame, 1)
    shape = struct.unpack_from(f"<{ndim}I", frame, struct.calcsize(_PREDICT_HEAD))
    offset = struct.calcsize(_PREDICT_HEAD) + 4 * ndim
    x = np.frombuffer(frame, dtype=dtype, offset=offset).reshape(shape)
    return int(rid), x


def _encode_batch(
    rids,
    service_s: float,
    acc_bits: int,
    outputs: Optional[np.ndarray] = None,
    error: Optional[str] = None,
) -> bytes:
    status = 0 if error is None else 1
    head = struct.pack(_BATCH_HEAD, _MSG_BATCH, status, service_s, acc_bits, len(rids))
    rid_bytes = struct.pack(f"<{len(rids)}Q", *rids)
    if error is None:
        out = np.ascontiguousarray(outputs)
        dtype_str = out.dtype.str.encode("ascii")
        return (
            head
            + rid_bytes
            + struct.pack("<BB", len(dtype_str), out.ndim)
            + dtype_str
            + struct.pack(f"<{out.ndim}I", *out.shape)
            + out.tobytes()
        )
    message = error.encode("utf-8")
    return head + rid_bytes + struct.pack("<I", len(message)) + message


def _decode_batch(frame):
    """Returns ``(service_s, acc_bits, rids, outputs, error)``."""
    status, service_s, acc_bits, count = struct.unpack_from("<BdHI", frame, 1)
    offset = struct.calcsize(_BATCH_HEAD)
    rids = struct.unpack_from(f"<{count}Q", frame, offset)
    offset += 8 * count
    if status == 0:
        dtype_len, ndim = struct.unpack_from("<BB", frame, offset)
        offset += 2
        dtype = np.dtype(bytes(frame[offset : offset + dtype_len]).decode("ascii"))
        offset += dtype_len
        shape = struct.unpack_from(f"<{ndim}I", frame, offset)
        offset += 4 * ndim
        outputs = np.frombuffer(frame, dtype=dtype, offset=offset).reshape(shape)
        return float(service_s), int(acc_bits), [int(r) for r in rids], outputs, None
    (message_len,) = struct.unpack_from("<I", frame, offset)
    offset += 4
    error = bytes(frame[offset : offset + message_len]).decode("utf-8")
    return float(service_s), int(acc_bits), [int(r) for r in rids], None, error


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _pool_worker_main(
    conn,
    shm_name: str,
    shm_nbytes: int,
    content_key: str,
    backend: str,
    batch_window_s: float,
    max_batch_size: int,
    untrack: bool,
) -> None:
    """Worker entry point: map the artifact, build, serve the pipe.

    Single-threaded by design — the pipe is the queue (FIFO, so batch
    composition is deterministic given arrival order) and the window
    logic mirrors the thread engine's ``_collect_batch``: the head
    request waits up to ``batch_window_s`` for company, capped at
    ``max_batch_size``, and the window never delays a full batch.
    """
    from repro.tensor.tensor import Tensor, no_grad

    try:
        segment = SharedArtifactSegment.attach(shm_name, shm_nbytes, untrack=untrack)
        artifact = segment.load()
        if artifact.content_key != content_key:
            raise ValueError(
                f"shared segment holds artifact {artifact.content_key}, "
                f"expected {content_key}"
            )
        # Freshly parsed artifact: this process is the prototype's sole
        # user, so it serves directly (no clone). build_serving_model
        # already leaves it in eval mode.
        model = artifact.model_for(backend)
        dtype = _model_input_dtype(model)
        acc_probe = getattr(model, "max_acc_bits", None)
        conn.send_bytes(
            struct.pack("<BB", _MSG_READY, len(dtype.str)) + dtype.str.encode("ascii")
        )
    except Exception as exc:
        message = f"{type(exc).__name__}: {exc}".encode("utf-8")
        try:
            conn.send_bytes(struct.pack("<BI", _MSG_FATAL, len(message)) + message)
        except (BrokenPipeError, OSError):
            pass
        return

    closing = False
    while not closing:
        try:
            frame = conn.recv_bytes()
        except EOFError:
            return  # parent vanished; nothing to answer
        if frame[0] == _OP_CLOSE:
            break
        batch = [_decode_predict(frame, dtype)]
        deadline = time.monotonic() + batch_window_s
        while len(batch) < max_batch_size:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not conn.poll(remaining):
                break
            try:
                frame = conn.recv_bytes()
            except EOFError:
                return
            if frame[0] == _OP_CLOSE:
                closing = True  # answer the open batch, then leave
                break
            batch.append(_decode_predict(frame, dtype))

        started = time.monotonic()
        outputs = None
        error: Optional[str] = None
        try:
            inputs = np.stack([x for _rid, x in batch])
            with no_grad():
                outputs = model(Tensor(inputs)).data
        except Exception as exc:  # answer the whole batch with the failure
            error = f"{type(exc).__name__}: {exc}"
        service_s = time.monotonic() - started
        acc_bits = int(acc_probe()) if acc_probe is not None else 0
        try:
            conn.send_bytes(
                _encode_batch(
                    [rid for rid, _x in batch],
                    service_s,
                    acc_bits,
                    outputs=outputs,
                    error=error,
                )
            )
        except (BrokenPipeError, OSError):
            return
    try:
        conn.send_bytes(struct.pack("<B", _MSG_CLOSED))
        conn.close()
    except (BrokenPipeError, OSError):
        pass
    # Drop the artifact's view of the mapping before detaching, so the
    # segment close is clean rather than suppressed by live exports.
    model = None
    artifact = None
    segment.close()


# ----------------------------------------------------------------------
# Parent-side worker handle (duck-types the engine surface)
# ----------------------------------------------------------------------
class ProcessWorkerHandle:
    """Parent-side handle to one worker process, engine-duck-typed.

    Exposes exactly the surface :class:`~repro.serve.pool.EnginePool`
    and :class:`~repro.serve.session.ServingSession` consume from an
    engine — ``submit``/``adopt``/``drain``/``close``/``kill``/
    ``stats``/``queue_depth``/``worker_died``/``take_orphans``/
    ``executed_batches``/``annotate_artifact`` — with all accounting
    parent-side: stats, latencies and executed-batch records are
    derived from the answer stream, so they survive the worker's death
    (a killed worker's batches must stay replayable for parity).
    """

    def __init__(
        self,
        process,
        conn,
        input_dtype: np.dtype,
        backend: str,
        record_batches: bool = False,
        max_pending: Optional[int] = None,
    ):
        self.process = process
        self.conn = conn
        self.input_dtype = np.dtype(input_dtype)
        self.max_pending = None if max_pending is None else int(max_pending)
        self._record = bool(record_batches)  # immutable after construction
        self._cond = threading.Condition()
        self._outstanding: Dict[int, _QueuedRequest] = {}  # guarded-by: _cond
        self._stats = ServeStats(backend=backend)  # guarded-by: _cond
        self._batches: List[Tuple[int, ...]] = []  # guarded-by: _cond
        self._next_id = 0  # guarded-by: _cond
        self._closing = False  # guarded-by: _cond
        self._crashed = False  # guarded-by: _cond
        self._close_sent = False  # guarded-by: _cond
        # The wire lock serializes writers on the pipe; never taken
        # while holding _cond's lock (submit updates state first, then
        # sends), so a blocked pipe cannot wedge the stats readers.
        self._wire_lock = threading.Lock()
        # Until start(), request frames wait here instead of on the pipe.
        self._started = False  # guarded-by: _wire_lock
        self._held: List[bytes] = []  # guarded-by: _wire_lock
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-serve-proc-reader-{process.pid}",
            daemon=True,
        )
        self._reader.start()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Ship the frames held since construction, in submit order,
        and send every later one straight away (idempotent). Until then
        the worker idles, so requests queued before a pool's start()
        coalesce deterministically, as in the thread engine."""
        try:
            with self._wire_lock:
                if self._started:
                    return
                self._started = True
                held, self._held = self._held, []
                for frame in held:
                    self.conn.send_bytes(frame)
        except (BrokenPipeError, OSError):
            self._note_broken_pipe()

    @property
    def started(self) -> bool:
        with self._wire_lock:
            return self._started

    def kill(self) -> None:
        """Chaos hook: SIGKILL the worker process.

        The kernel tears the process down without any Python-level
        cleanup — in-flight and queued requests are stranded exactly as
        a real crash would strand them, and the mapping is dropped by
        the kernel (no shm leak). Recovery is the pool supervisor's job.
        """
        os.kill(self.process.pid, signal.SIGKILL)

    @property
    def worker_died(self) -> bool:
        """True once the worker process died without closing."""
        with self._cond:
            return self._crashed

    @property
    def queue_depth(self) -> int:
        """Requests submitted and not yet answered."""
        with self._cond:
            return len(self._outstanding)

    # -- request side ---------------------------------------------------
    def submit(self, x):
        array = np.ascontiguousarray(x, dtype=self.input_dtype)
        with self._cond:
            if self._closing or self._crashed:
                raise EngineClosed("worker process is closed")
            if (
                self.max_pending is not None
                and len(self._outstanding) >= self.max_pending
            ):
                self._stats.rejected += 1
                raise QueueFull(
                    f"worker has {len(self._outstanding)} requests pending "
                    f"(max_pending={self.max_pending}); retry later"
                )
            request = _QueuedRequest(self._next_id, array, time.monotonic())
            self._next_id += 1
            self._outstanding[request.rid] = request
            self._stats.requests += 1
            self._stats.max_queue_depth = max(
                self._stats.max_queue_depth, len(self._outstanding)
            )
        self._send_request(request)
        return request.pending

    def adopt(self, request: _QueuedRequest) -> None:
        """Enqueue an orphan from a dead worker (fresh local rid; the
        pending handle is remapped; ``max_pending`` is bypassed — the
        request was already admitted once)."""
        with self._cond:
            if self._closing or self._crashed:
                raise EngineClosed("worker process is closed")
            request.rid = self._next_id
            request.pending.request_id = request.rid
            self._next_id += 1
            self._outstanding[request.rid] = request
            self._stats.requests += 1
            self._stats.max_queue_depth = max(
                self._stats.max_queue_depth, len(self._outstanding)
            )
        self._send_request(request)

    def _send_request(self, request: _QueuedRequest) -> None:
        """Ship one framed request; a broken pipe marks the worker dead
        (the request stays in ``_outstanding`` for the supervisor's
        orphan rescue — it is never silently lost)."""
        frame = _encode_predict(request.rid, request.x)
        try:
            with self._wire_lock:
                if not self._started:
                    self._held.append(frame)
                    return
                self.conn.send_bytes(frame)
        except (BrokenPipeError, OSError):
            self._note_broken_pipe()

    def _note_broken_pipe(self) -> None:
        with self._cond:
            if not self._closing:
                self._crashed = True
            self._cond.notify_all()

    def predict(self, x, timeout: Optional[float] = None) -> np.ndarray:
        return self.submit(x).result(timeout)

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every submitted request has been answered."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._outstanding:
                if self._crashed:
                    raise EngineDied(
                        "worker process died with requests outstanding; "
                        "they will never drain"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise TimeoutError("drain() timed out")
                self._cond.wait(remaining)

    def take_orphans(self) -> List[_QueuedRequest]:
        """Strip every unanswered request off a dead worker (rid order)
        and mark the handle closing. Mirrors the thread engine: the
        orphans keep their ``enqueued_at`` and leave this worker's
        ``requests`` count (the adopter counts them afresh)."""
        with self._cond:
            self._closing = True
            orphans = [self._outstanding[rid] for rid in sorted(self._outstanding)]
            self._outstanding.clear()
            self._stats.requests -= len(orphans)
            self._cond.notify_all()
        return orphans

    # -- answer side ----------------------------------------------------
    def _read_loop(self) -> None:
        while True:
            try:
                frame = self.conn.recv_bytes()
            except (EOFError, OSError):
                break
            op = frame[0]
            if op == _MSG_BATCH:
                self._handle_batch(frame)
            elif op == _MSG_CLOSED:
                break  # graceful exit: the worker sends nothing more
        with self._cond:
            if not self._closing:
                self._crashed = True
            self._cond.notify_all()

    def _handle_batch(self, frame) -> None:
        service_s, acc_bits, rids, outputs, error = _decode_batch(frame)
        finished = time.monotonic()
        answered: List[Tuple[_QueuedRequest, int]] = []
        with self._cond:
            for position, rid in enumerate(rids):
                request = self._outstanding.pop(rid, None)
                if request is not None:  # None: cancelled under the worker
                    answered.append((request, position))
            self._stats.forwards += 1
            self._stats.total_forward_s += service_s
            self._stats.max_batch_seen = max(self._stats.max_batch_seen, len(rids))
            self._stats.acc_bits_used = max(self._stats.acc_bits_used, acc_bits)
            if len(rids) > 1:
                self._stats.coalesced_forwards += 1
                self._stats.batched_requests += len(rids)
            if self._record:
                self._batches.append(tuple(rids))
            if error is not None:
                self._stats.errors += len(answered)
            else:
                self._stats.completed += len(answered)
                for request, _position in answered:
                    latency = finished - request.enqueued_at
                    self._stats.latencies_s.append(latency)
                    self._stats.total_latency_s += latency
                    self._stats.max_latency_s = max(self._stats.max_latency_s, latency)
        # Answer outside the lock, before notifying drain() waiters.
        for request, position in answered:
            latency = finished - request.enqueued_at
            if error is not None:
                request.pending._finish(
                    error=RuntimeError(f"worker forward failed: {error}"),
                    latency_s=latency,
                    service_s=service_s,
                )
            else:
                request.pending._finish(
                    value=outputs[position].copy(),
                    latency_s=latency,
                    service_s=service_s,
                )
        with self._cond:
            self._cond.notify_all()

    # -- shutdown -------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the worker down; mirrors the thread engine's contract.

        ``drain=True`` sends the close frame — the worker answers every
        request already on the pipe (FIFO guarantees nothing is
        skipped), acknowledges, and exits; ``drain=False`` terminates
        the process and cancels outstanding requests with
        :class:`RequestCancelled`. A worker still alive after the join
        window raises :class:`ShutdownTimeout` and stays open — a
        later ``close()`` keeps waiting.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            self._closing = True
            crashed = self._crashed
            send_close = drain and not self._close_sent and not crashed
            if send_close:
                self._close_sent = True
        if send_close:
            self.start()  # a never-started worker answers its held frames too
            try:
                with self._wire_lock:
                    self.conn.send_bytes(struct.pack("<BB", _OP_CLOSE, 1))
            except (BrokenPipeError, OSError):
                pass  # worker already gone; join below settles it
        if not drain and self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout)
        if self.process.is_alive():
            raise ShutdownTimeout(
                f"worker process still running after {timeout} s "
                f"(draining={drain}); call close() again to keep waiting"
            )
        # The reader leaves on the worker's CLOSED frame, or on EOF once
        # the worker has exited; closing the pipe under a reader still
        # inside recv_bytes would crash that thread.
        self._reader.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
        if self._reader.is_alive():
            raise ShutdownTimeout(
                f"worker exited but its pipe reader is still running after "
                f"{timeout} s; call close() again to keep waiting"
            )
        try:
            self.conn.close()
        except OSError:
            pass
        # Settle whatever the worker never answered: cancellations for
        # a non-draining close, loud EngineDied for a crashed worker —
        # closing a dead worker must not turn into a silent drop.
        with self._cond:
            leftovers = [self._outstanding[rid] for rid in sorted(self._outstanding)]
            self._outstanding.clear()
            if drain:
                self._stats.errors += len(leftovers)
            else:
                self._stats.cancelled += len(leftovers)
            self._cond.notify_all()
        for request in leftovers:
            if drain:
                request.pending._finish(
                    error=EngineDied(
                        "worker process died before answering this request"
                    )
                )
            else:
                request.pending._finish(
                    error=RequestCancelled("worker closed before the request ran")
                )

    def __enter__(self) -> "ProcessWorkerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    # -- introspection --------------------------------------------------
    @property
    def stats(self) -> ServeStats:
        with self._cond:
            return self._stats.snapshot()

    def annotate_artifact(
        self, nbytes: int, payload_nbytes: int, sidecar_nbytes: int
    ) -> None:
        with self._cond:
            self._stats.artifact_nbytes = int(nbytes)
            self._stats.payload_nbytes = int(payload_nbytes)
            self._stats.sidecar_nbytes = int(sidecar_nbytes)

    @property
    def records_batches(self) -> bool:
        return self._record

    def executed_batches(self) -> List[Tuple[int, ...]]:
        if not self._record:
            raise RuntimeError("worker was created with record_batches=False")
        with self._cond:
            return list(self._batches)


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class ProcessEnginePool(EnginePool):
    """N worker processes serving one shared-memory artifact.

    Construction: the artifact's bytes go into one shared segment;
    each worker attaches, parses zero-copy, builds its private model
    and serves its pipe. The parent additionally holds one
    :meth:`~repro.serve.artifact.ArtifactCache.lease` per worker — the
    bit-identical *verification twin* of the worker's model (artifact
    reconstruction is deterministic), which is what lets
    :func:`~repro.serve.replay.verify_replay` replay worker-served
    batches bit-exactly without any cross-process model shipping, and
    keeps cache lease accounting identical to the thread pools.

    Supervision mirrors :class:`~repro.serve.pool.AutoscalingEnginePool`:
    a supervisor thread sweeps for dead workers and runs
    death → lease/shm release → replacement → orphan re-dispatch.
    ``close()`` shuts every worker down, releases the leases and
    unlinks the segment (the shm-leak guard: attaching the name
    afterwards fails).
    """

    supports_chaos = True

    def __init__(
        self,
        artifact: ServingArtifact,
        cache,
        workers: int = 2,
        batch_window_s: float = 0.002,
        max_batch_size: int = 16,
        record_batches: bool = False,
        autostart: bool = True,
        backend: str = "float",
        max_pending: Optional[int] = None,
        mp_context: Optional[str] = None,
        ready_timeout_s: float = 120.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if artifact.data is None:
            raise ValueError(
                "artifact holds no serialized bytes — a process pool maps "
                "the serialized form into shared memory"
            )
        import multiprocessing

        if mp_context is None:
            mp_context = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        self._untrack_on_attach = mp_context != "fork"
        self._artifact = artifact
        self._cache = cache
        self._backend = backend
        self._batch_window_s = float(batch_window_s)
        self._max_batch_size = int(max_batch_size)
        self._record_batches = bool(record_batches)
        self._max_pending = None if max_pending is None else int(max_pending)
        self._ready_timeout_s = float(ready_timeout_s)
        # _events/_counters are mutated only by the single supervisor
        # thread (and by close()/construction before it runs); readers
        # take GIL-atomic snapshots. _pool_closing is a monotonic flag.
        self._events: List[ScaleEvent] = []
        self._counters = {"deaths": 0, "redispatched": 0}
        self._pool_closing = False
        self._supervisor_error: Optional[BaseException] = None
        self._stop = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._shm_attached = 0  # guarded-by: _lock
        self._shm_detached_total = 0  # guarded-by: _lock
        super().__init__(autostart=autostart)
        self.segment = SharedArtifactSegment.create(artifact.data)
        try:
            for _ in range(workers):
                self._spawn_worker()
        except BaseException:
            for slot in list(self._slots):
                try:
                    slot.engine.close(drain=False, timeout=5.0)
                # Best-effort teardown of partially-spawned workers:
                # the original spawn error must propagate, not this.
                except Exception:  # repro: allow(bare-except)
                    pass
                if slot.lease is not None:
                    slot.lease.release()
            self.segment.close()
            self.segment.unlink()
            raise
        self._born_s = self._slots[0].born_s
        self._start_supervisor()

    # ------------------------------------------------------------------
    def _spawn_worker(self) -> _EngineSlot:
        """Lease a verification twin, fork a worker, handshake, enroll."""
        lease = self._cache.lease(self._artifact, backend=self._backend)
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_pool_worker_main,
                args=(
                    child_conn,
                    self.segment.name,
                    self.segment.nbytes,
                    self._artifact.content_key,
                    self._backend,
                    self._batch_window_s,
                    self._max_batch_size,
                    self._untrack_on_attach,
                ),
                name="repro-serve-proc-worker",
                daemon=True,
            )
            process.start()
            child_conn.close()  # parent's copy, so worker EOF propagates
            input_dtype = _model_input_dtype(lease.model)
            self._await_ready(parent_conn, process, input_dtype)
        except BaseException:
            lease.release()
            raise
        handle = ProcessWorkerHandle(
            process,
            parent_conn,
            input_dtype=input_dtype,
            backend=getattr(lease.model, "serving_backend", "float"),
            record_batches=self._record_batches,
            max_pending=self._max_pending,
        )
        slot = self._add_slot_locked(handle, lease.model, lease)
        with self._lock:
            self._shm_attached += 1
            started = self._started
        # Checked after enrolling: a concurrent pool start() either saw
        # this slot or had already set the flag read here.
        if started:
            handle.start()
        return slot

    def _await_ready(self, conn, process, expected_dtype: np.dtype) -> None:
        """Block for the worker's handshake (READY or FATAL).

        The READY frame carries the dtype the worker's model computes
        in; it must match the parent's verification twin, or parity
        replays would compare across dtypes.
        """
        if not conn.poll(self._ready_timeout_s):
            process.terminate()
            process.join(5.0)
            raise RuntimeError(
                f"worker did not come up within {self._ready_timeout_s} s"
            )
        frame = conn.recv_bytes()
        if frame[0] == _MSG_FATAL:
            (message_len,) = struct.unpack_from("<I", frame, 1)
            message = bytes(frame[5 : 5 + message_len]).decode("utf-8")
            process.join(5.0)
            raise RuntimeError(f"worker failed to build the artifact: {message}")
        if frame[0] != _MSG_READY:
            process.terminate()
            process.join(5.0)
            raise RuntimeError(f"unexpected handshake opcode {frame[0]}")
        (dtype_len,) = struct.unpack_from("<B", frame, 1)
        worker_dtype = np.dtype(bytes(frame[2 : 2 + dtype_len]).decode("ascii"))
        if worker_dtype != expected_dtype:
            process.terminate()
            process.join(5.0)
            raise RuntimeError(
                f"worker computes in {worker_dtype}, parent twin in "
                f"{expected_dtype} — artifact reconstruction diverged"
            )

    # ------------------------------------------------------------------
    # Supervision (mirrors the autoscaling pool's death contract)
    # ------------------------------------------------------------------
    def _start_supervisor(self) -> None:
        if self._supervisor is not None or self._pool_closing:
            return
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serve-proc-supervisor", daemon=True
        )
        self._supervisor.start()

    def _supervise(self) -> None:
        while not self._stop.wait(0.02):
            try:
                self._sweep_deaths()
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

    def _handle_death(self, slot: _EngineSlot, replace: bool = True) -> None:
        now = time.monotonic()
        with self._lock:
            if slot not in self._live:
                return
            self._live.remove(slot)
            slot.fate = "died"
            slot.retired_s = now
            engines_now = len(self._live)
            self._shm_attached -= 1  # the kernel dropped its mapping
            self._shm_detached_total += 1
        orphans = slot.engine.take_orphans()
        slot.engine.process.join(5.0)  # reap the corpse
        if slot.lease is not None:
            slot.lease.release()
        self._counters["deaths"] += 1
        self._events.append(
            ScaleEvent(now - self._born_s, "death", engines_now, 0.0, slot.index)
        )
        replace_error: Optional[BaseException] = None
        if replace and not self._pool_closing:
            try:
                new_slot = self._spawn_worker()
            except Exception as exc:
                # A failed replacement must not strand the orphans —
                # re-dispatch to whatever is still live (or fail each
                # loudly), then surface the spawn failure.
                replace_error = exc
            else:
                with self._lock:
                    engines_now = len(self._live)
                self._events.append(
                    ScaleEvent(
                        time.monotonic() - self._born_s,
                        "replace",
                        engines_now,
                        0.0,
                        new_slot.index,
                    )
                )
        for request in orphans:
            self._redispatch(slot.index, request)
        if replace_error is not None:
            raise replace_error

    def _note_redispatch(self) -> None:
        self._counters["redispatched"] += 1

    def chaos_kill(self, engine_index: Optional[int] = None) -> int:
        """SIGKILL a live worker process; returns its slot index.

        The supervisor then detects the death, releases the lease and
        shm accounting, spawns a replacement and rescues the stranded
        requests — the whole path this hook exists to exercise.
        """
        with self._lock:
            if not self._live:
                raise RuntimeError("no live workers to kill")
            if engine_index is None:
                slot = self._live[0]
            else:
                matches = [s for s in self._live if s.index == engine_index]
                if not matches:
                    raise ValueError(f"worker {engine_index} is not live")
                slot = matches[0]
        slot.engine.kill()
        return slot.index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def scale_events(self) -> List[ScaleEvent]:
        return list(self._events)

    def describe_scaling(self) -> Dict[str, object]:
        """Supervision report: not autoscaled (``enabled`` stays False)
        but deaths, replacements and lifetimes ride along in the replay
        payload."""
        return {
            "enabled": False,
            "kind": "process",
            "workers": len(self),
            "engine_deaths": self._counters["deaths"],
            "redispatched": self._counters["redispatched"],
            "events": [event.to_dict() for event in self.scale_events()],
            "engine_lifetimes_s": self.engine_lifetimes_s(),
        }

    def shm_stats(self) -> Dict[str, object]:
        """Shared-memory accounting: the one segment, its live worker
        attach count, and how many attachments were torn down."""
        with self._lock:
            return {
                "segment": self.segment.name,
                "nbytes": int(self.segment.nbytes),
                "attached": int(self._shm_attached),
                "detached_total": int(self._shm_detached_total),
                "unlinked": bool(self.segment._unlinked),
            }

    @property
    def stats(self) -> ServeStats:
        merged = super().stats
        merged.engine_deaths = self._counters["deaths"]
        merged.redispatched = self._counters["redispatched"]
        return merged

    # ------------------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop the supervisor, rescue any last orphans, close every
        worker, release the leases, then unlink the shared segment.

        Mirrors the autoscaling pool: a :class:`ShutdownTimeout` leaves
        the laggards' leases (and the segment) held, and a retried
        ``close()`` finishes the job — the segment is only unlinked
        once every worker is down, so no worker ever maps a vanishing
        name.
        """
        self._pool_closing = True
        self._stop.set()
        supervisor = self._supervisor
        if supervisor is not None and supervisor.is_alive():
            supervisor.join()
        # Final death sweep without replacement: orphans re-dispatch to
        # the workers we are about to drain-close (they still answer
        # their pipes), or fail loudly if none is live.
        self._sweep_deaths(replace=False)
        super().close(drain=drain, timeout=timeout)
        with self._lock:
            slots = list(self._slots)
            self._shm_detached_total += self._shm_attached
            self._shm_attached = 0
        for slot in slots:
            if slot.lease is not None:
                slot.lease.release()
        self.segment.close()
        self.segment.unlink()
        if self._supervisor_error is not None:
            error = self._supervisor_error
            self._supervisor_error = None
            raise RuntimeError("process-pool supervisor died mid-run") from error
