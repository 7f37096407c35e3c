"""Process placement: worker processes over zero-copy artifacts.

Thread engines multiply queueing capacity but not compute — the
pure-numpy forwards of every engine contend on one GIL.
:class:`ProcessPlacement` is the placement that puts each engine of an
:class:`~repro.serve.pool.EnginePool` in its own **worker process**, so
sessions, replay drivers and the gateway cannot tell the difference
while forwards run truly in parallel. Supervision, autoscaling and
chaos recovery are the pool's; this module only knows how to start,
reap and address a worker.

Three design points carry the module:

* **Zero-copy artifact sharing.** The placement copies the artifact's
  serialized bytes into one
  :class:`~repro.serve.artifact.SharedArtifactSegment` (the only copy
  ever made) and workers attach by name, verify the content hash, and
  parse the CQW1/CQS2 container *in place* with ``np.frombuffer`` views
  over the mapping. N workers share one physical copy of the packed
  codes; each worker's reconstructed float weights (or compiled integer
  specs) are deliberately process-private. The placement owns the
  segment name and unlinks it when the pool closes — after that,
  attaching the name fails, which is exactly what the shm-leak test
  asserts.

* **Pickle-free wire format.** Requests and answers travel over a
  duplex pipe as struct-framed binary messages
  (``Connection.send_bytes``/``recv_bytes``): fixed little-endian
  headers plus raw C-order array bytes. No pickle on the request path —
  nothing to deserialize-execute, no per-message protocol overhead
  beyond the struct header, and both ends stay bit-exact because the
  bytes on the wire *are* the array bytes the models see.

* **Parent-side accounting.** :class:`ProcessWorkerHandle` is the
  thread engine's core (admission, the outstanding-request table,
  batch accounting, ``drain``, orphan hand-off) with a pipe where the
  worker thread would be. Its executed-batch records live parent-side
  (derived from the answer stream), so a dead worker's batches remain
  replayable and :func:`~repro.serve.replay.verify_replay` still
  reaches full coverage after a mid-replay kill: the parent holds a
  bit-identical lease clone of every worker's model, and artifact
  reconstruction is deterministic, so the parent can replay
  worker-served batches bit-exactly. The worker collects batches by
  the thread engine's rules and runs them through the same forward
  helper.
"""

from __future__ import annotations

import math
import os
import signal
import struct
import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.artifact import ServingArtifact, SharedArtifactSegment
from repro.serve.engine import (
    ShutdownTimeout,
    _EngineCore,
    _forward_batch,
    _model_input_dtype,
    _QueuedRequest,
)

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

#: How long a spawned worker may take to map, parse and build the artifact.
_READY_TIMEOUT_S = 120.0

_PREDICT_HEAD = "<BQB"  # op, rid, ndim
_BATCH_HEAD = "<BBdHI"  # op, status, service_s, acc_bits, count


def _encode_predict(rid: int, array: np.ndarray) -> bytes:
    """Frame one request: header + shape + raw C-order array bytes."""
    return (
        struct.pack(_PREDICT_HEAD, _OP_PREDICT, rid, array.ndim)
        + struct.pack(f"<{array.ndim}I", *array.shape)
        + array.tobytes()
    )


def _decode_predict(frame, dtype: np.dtype, offset: int = 0) -> Tuple[int, np.ndarray]:
    """One request frame starting at ``offset`` (a zero-copy view)."""
    rid, ndim = struct.unpack_from("<QB", frame, offset + 1)
    offset += struct.calcsize(_PREDICT_HEAD)
    shape = struct.unpack_from(f"<{ndim}I", frame, offset)
    count = math.prod(shape)
    x = np.frombuffer(frame, dtype=dtype, count=count, offset=offset + 4 * ndim)
    return int(rid), x.reshape(shape)


def _decode_predicts(message, dtype: np.dtype) -> List[Tuple[int, np.ndarray]]:
    """Every request frame in one message: a handle ships the frames it
    held before ``start()`` concatenated, in submit order."""
    requests = []
    offset = 0
    while offset < len(message):
        rid, x = _decode_predict(message, dtype, offset)
        requests.append((rid, x))
        offset += struct.calcsize(_PREDICT_HEAD) + 4 * x.ndim + x.nbytes
    return requests


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
    composition is deterministic given arrival order). Batch
    collection follows the thread engine's rules, capped at
    ``max_batch_size``: a worker that was idle when a request arrived
    runs it at once with whatever is already readable; one that
    comes back from a forward to a backlog — rows received but not
    batched, or a frame waiting on the pipe, which backs up during
    every forward — waits up to ``batch_window_s`` for the batch to
    fill. The rows a handle held until ``start()`` arrive as one
    message and are a backlog too. Requests already received join the
    open batch even once the window has passed, and the window never
    delays a full batch.
    Batches run through the engine's ``_forward_batch``.
    """
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
        model = artifact.integer_model() if backend == "integer" else artifact.model()
        dtype = _model_input_dtype(model)
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

    received: Deque[Tuple[int, np.ndarray]] = deque()  # not yet in a batch
    closing = False
    backlog = False  # rows waiting when the worker last came free
    try:
        while received or not closing:
            if not received:
                frame = conn.recv_bytes()
                if frame[0] == _OP_CLOSE:
                    break
                requests = _decode_predicts(frame, dtype)
                # Only start() ships several requests in one message: the
                # rows its handle held, a backlog as on the thread engine.
                backlog = backlog or len(requests) > 1
                received.extend(requests)
            batch = [received.popleft()]
            deadline = time.monotonic() + (batch_window_s if backlog else 0.0)
            while len(batch) < max_batch_size:
                if not received:
                    if closing or not conn.poll(max(0.0, deadline - time.monotonic())):
                        break
                    frame = conn.recv_bytes()
                    if frame[0] == _OP_CLOSE:
                        closing = True  # answer what came before it, then leave
                        break
                    received.extend(_decode_predicts(frame, dtype))
                batch.append(received.popleft())
            outputs, error, service_s, acc_bits = _forward_batch(
                model, [x for _rid, x in batch]
            )
            # Checked before the answer goes out, so a client's follow-up
            # to it is not mistaken for a backlog.
            backlog = bool(received) or conn.poll()
            conn.send_bytes(
                _encode_batch(
                    [rid for rid, _x in batch],
                    service_s,
                    acc_bits,
                    outputs=outputs,
                    error=None if error is None else f"{type(error).__name__}: {error}",
                )
            )
        conn.send_bytes(struct.pack("<B", _MSG_CLOSED))
        conn.close()
    except (EOFError, BrokenPipeError, OSError):
        return  # parent vanished; nothing to answer
    # Drop the artifact's view of the mapping before detaching, so the
    # segment close is clean rather than suppressed by live exports.
    model = None
    artifact = None
    segment.close()


# ----------------------------------------------------------------------
# Parent-side worker handle
# ----------------------------------------------------------------------
class ProcessWorkerHandle(_EngineCore):
    """Parent-side handle to one worker process.

    Admission, the outstanding-request table, batch accounting,
    ``drain``, orphan hand-off and the settling of leftovers are the
    engine core's, shared with :class:`~repro.serve.engine.InferenceEngine`.
    This class adds the pipe, the request frames held until
    :meth:`start`, the reader thread that turns ``BATCH`` frames into
    answers, and the process lifecycle. Accounting stays parent-side,
    derived from the answer stream, so stats, latencies and
    executed-batch records survive the worker's death (a killed
    worker's batches must stay replayable for parity).
    """

    def __init__(
        self,
        process,
        conn,
        input_dtype: np.dtype,
        backend: str,
        record_batches: bool,
        max_pending: Optional[int],
    ):
        super().__init__(input_dtype, backend, record_batches, max_pending)
        self.process = process
        self.conn = conn
        self._close_sent = False  # guarded-by: _cond
        # The wire lock serializes writers on the pipe; never taken
        # while holding _cond (admission updates state first, then
        # ships), so a blocked pipe cannot wedge the reader.
        self._wire_lock = threading.Lock()
        # Until start(), request frames wait here instead of on the
        # pipe; None once started.
        self._held: Optional[List[bytes]] = []  # guarded-by: _wire_lock
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-serve-proc-reader-{process.pid}",
            daemon=True,
        )
        self._reader.start()

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Ship the frames held since construction, in submit order and
        as one message, and send every later one straight away
        (idempotent). Until then the worker idles; the held backlog
        then reaches it all at once and coalesces into full batches, as
        the thread engine's queue does."""
        with self._cond:
            self._started = True
        try:
            with self._wire_lock:
                held, self._held = self._held, None
                if held:
                    self.conn.send_bytes(b"".join(held))
        except (BrokenPipeError, OSError):
            pass  # the reader sees EOF and marks the worker dead

    def kill(self) -> None:
        """Chaos hook: SIGKILL the worker process.

        The kernel tears the process down without any Python-level
        cleanup — in-flight and queued requests are stranded exactly as
        a real crash would strand them, and the mapping is dropped by
        the kernel (no shm leak). Recovery is the pool supervisor's job.
        """
        os.kill(self.process.pid, signal.SIGKILL)

    # -- request and answer sides ---------------------------------------
    def _ship(self, request: _QueuedRequest) -> None:
        frame = _encode_predict(request.rid, request.x)
        try:
            with self._wire_lock:
                if self._held is not None:
                    self._held.append(frame)
                else:
                    self.conn.send_bytes(frame)
        except (BrokenPipeError, OSError):
            # The request stays outstanding: the reader sees EOF and
            # marks the worker dead, and the supervisor rescues it.
            pass

    def _read_loop(self) -> None:
        try:
            while True:
                try:
                    frame = self.conn.recv_bytes()
                except (EOFError, OSError):
                    return
                if frame[0] == _MSG_CLOSED:
                    return  # graceful exit: the worker sends nothing more
                if frame[0] == _MSG_BATCH:
                    service_s, acc_bits, rids, outputs, error = _decode_batch(frame)
                    if error is not None:
                        error = RuntimeError(f"worker forward failed: {error}")
                    self._complete(rids, outputs, error, service_s, acc_bits)
        finally:
            # Any exit outside a close is a death — EOF and a failure
            # while handling a frame alike. A worker whose answers can
            # no longer be read must not outlive its reader.
            if self._note_exit():
                self.process.kill()

    # -- shutdown -------------------------------------------------------
    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Shut the worker down; the thread engine's contract.

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
            send_close = drain and not self._close_sent and not self._crashed
            self._close_sent = self._close_sent or send_close
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
        self._settle_leftovers(drain)


# ----------------------------------------------------------------------
# The placement
# ----------------------------------------------------------------------
class ProcessPlacement:
    """Worker processes over one shared-memory copy of the artifact.

    Construction copies the artifact's bytes into one shared segment;
    each :meth:`spawn` forks a worker that attaches, parses zero-copy,
    builds its private model and serves its pipe. The parent leases one
    clone per worker from ``cache`` — the bit-identical *verification
    twin* of the worker's model (artifact reconstruction is
    deterministic), which lets :func:`~repro.serve.replay.verify_replay`
    replay worker-served batches bit-exactly without shipping models
    across processes, and keeps lease accounting identical to the
    thread placement. ``first_lease`` (an already-taken lease of the
    same artifact) becomes the first twin. ``config`` (a
    :class:`~repro.serve.session.ServeConfig`) gives the backend and
    every worker's batching and admission knobs.

    :meth:`close` unlinks the segment — after that, attaching its name
    fails, which is what the shm-leak tests assert.
    """

    kind = "process"
    can_replace = True

    def __init__(
        self,
        artifact: ServingArtifact,
        cache,
        config,
        first_lease=None,
    ):
        if artifact.data is None:
            raise ValueError(
                "artifact holds no serialized bytes — a process pool maps "
                "the serialized form into shared memory"
            )
        import multiprocessing

        mp_context = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._ctx = multiprocessing.get_context(mp_context)
        self._untrack_on_attach = mp_context != "fork"
        self._artifact = artifact
        self.cache = cache
        self.config = config
        self._first_lease = first_lease
        self._lock = threading.Lock()
        self._attached = 0  # guarded-by: _lock
        self._detached_total = 0  # guarded-by: _lock
        self.segment = SharedArtifactSegment.create(artifact.data)

    def spawn(self):
        """Lease a verification twin, fork a worker, handshake; the
        handle holds its request frames until started."""
        config = self.config
        lease, self._first_lease = self._first_lease, None
        if lease is None:
            lease = self.cache.lease(self._artifact, backend=config.backend)
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=_pool_worker_main,
                args=(
                    child_conn,
                    self.segment.name,
                    self.segment.nbytes,
                    self._artifact.content_key,
                    config.backend,
                    float(config.batch_window_s),
                    int(config.max_batch_size),
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
            record_batches=config.record_batches,
            max_pending=config.max_pending,
        )
        with self._lock:
            self._attached += 1
        return handle, lease.model, lease

    def _await_ready(self, conn, process, expected_dtype: np.dtype) -> None:
        """Block for the worker's handshake (READY or FATAL).

        The READY frame carries the dtype the worker's model computes
        in; it must match the parent's verification twin, or parity
        replays would compare across dtypes.
        """
        if not conn.poll(_READY_TIMEOUT_S):
            process.terminate()
            process.join(5.0)
            raise RuntimeError(f"worker did not come up within {_READY_TIMEOUT_S} s")
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

    def detach(self, handle: ProcessWorkerHandle) -> None:
        """A worker left the rotation (died or retired): reap the
        process and drop its mapping from the attach count."""
        handle.process.join(5.0)
        with self._lock:
            self._attached -= 1
            self._detached_total += 1

    def close(self) -> None:
        """Every worker is down: unlink the segment (idempotent)."""
        with self._lock:
            self._detached_total += self._attached
            self._attached = 0
        if self._first_lease is not None:
            self._first_lease.release()
        self.segment.close()
        self.segment.unlink()

    def shm_stats(self) -> Dict[str, object]:
        """Shared-memory accounting: the one segment, its live worker
        attach count, and how many attachments were torn down."""
        with self._lock:
            return {
                "segment": self.segment.name,
                "nbytes": int(self.segment.nbytes),
                "attached": int(self._attached),
                "detached_total": int(self._detached_total),
                "unlinked": bool(self.segment._unlinked),
            }
