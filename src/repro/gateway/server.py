"""The gateway's HTTP front end: a hand-rolled asyncio HTTP/1.1 server.

Stdlib only — ``asyncio.start_server`` parses nothing, so the tiny
request parser here handles exactly what the gateway speaks: strict
JSON bodies, ``Content-Length`` framing, keep-alive connections.

Endpoints
---------
``POST /v1/predict/<artifact>``
    Strict-JSON body ``{"inputs": <tensor>, "encoding": "b64"|"list"}``
    (see :mod:`repro.gateway.wire`). One example or a batch; every row
    is submitted individually so concurrent requests coalesce in the
    engines' micro-batches. Responds with the outputs plus the
    per-row ``(engine_index, request_id)`` identities and timings the
    parity replay needs.
``GET /healthz``
    Liveness + drain state.
``GET /v1/artifacts``
    Registry contents (spec + loaded state per artifact).
``GET /v1/stats``
    Full per-artifact :class:`~repro.serve.engine.ServeStats`,
    admission counters, autoscale events and artifact-cache accounting.

Admission: requests are admitted against the artifact's registry
budget *before* any work is dispatched; exhaustion (or an engine-level
:class:`~repro.serve.engine.QueueFull`) sheds with **429 +
Retry-After**. Shutdown: :meth:`GatewayServer.close` stops intake
(new predicts get 503), waits for in-flight requests, then closes the
registry's sessions — reusing the serve layer's ``close(timeout)`` /
``ShutdownTimeout`` semantics. ``SIGTERM``/``SIGINT`` can be wired to
the same path via :meth:`GatewayServer.serve_forever`.

Every response body is :func:`~repro.gateway.wire.canonical_dumps`
output — sorted keys, ``allow_nan=False`` — so the wire schema is
byte-stable for a given payload.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Tuple

import numpy as np

from repro.gateway.registry import (
    AdmissionRejected,
    ArtifactRegistry,
    UnknownArtifact,
)
from repro.gateway.wire import (
    ENCODINGS,
    WireError,
    canonical_dumps,
    canonical_loads,
    coerce_batch,
    decode_tensor,
    encode_tensor,
    error_body,
)
from repro.serve.engine import EngineClosed, QueueFull

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Header-section size cap (also the StreamReader line limit).
MAX_HEADER_BYTES = 65536


class GatewayServer:
    """Serve an :class:`ArtifactRegistry` over HTTP.

    The asyncio event loop runs on a private daemon thread;
    :meth:`start` returns once the socket is bound (``port=0`` picks a
    free port — read :attr:`port` afterwards). Blocking predict work
    runs on a thread pool via ``run_in_executor`` so the loop never
    stalls behind a forward pass.
    """

    def __init__(
        self,
        registry: ArtifactRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        executor_threads: int = 8,
        max_body_bytes: int = 64 * 1024 * 1024,
        predict_timeout_s: float = 120.0,
    ):
        self.registry = registry
        self.host = host
        self.port = int(port)
        """Bound port — rewritten by :meth:`start` when 0 was asked."""
        self.max_body_bytes = int(max_body_bytes)
        self.predict_timeout_s = float(predict_timeout_s)
        self._executor_threads = int(executor_threads)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._draining = False
        """Monotonic flag: set by close(); predicts then shed with 503.
        Written once from the closing thread, read by the loop — no
        lock needed."""
        self._closed = False
        self._stopped = threading.Event()
        # Request counters, mutated only on the event-loop thread.
        self._requests: Dict[str, int] = {
            "predict": 0,
            "healthz": 0,
            "artifacts": 0,
            "stats": 0,
            "errors": 0,
        }
        self._inflight = 0
        """Predict requests currently being answered (loop thread only)."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "GatewayServer":
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        if self._closed:
            raise RuntimeError("gateway is closed")
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_threads,
            thread_name_prefix="repro-gateway-predict",
        )
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-gateway-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._start_error is not None:
            error = self._start_error
            self._thread.join()
            raise RuntimeError(f"gateway failed to bind {self.host}:{self.port}") from error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(
                asyncio.start_server(
                    self._serve_connection,
                    host=self.host,
                    port=self.port,
                    limit=MAX_HEADER_BYTES,
                )
            )
        except BaseException as exc:
            self._start_error = exc
            self._ready.set()
            loop.close()
            return
        self._server = server
        self.port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            # Drained keep-alive connections still await their next
            # request: end them on this loop, not at GC once it closed.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()
            self._stopped.set()

    async def _shutdown_async(self, drain: bool) -> None:
        """Stop intake, then (optionally) wait out in-flight predicts."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        while drain and self._inflight > 0:
            await asyncio.sleep(0.005)

    def close(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Graceful shutdown: shed new work, finish admitted work, then
        close every registry session. Idempotent.

        ``timeout`` bounds the whole teardown; expiry raises the serve
        layer's :class:`~repro.serve.engine.ShutdownTimeout` (from the
        registry sweep) or :class:`TimeoutError` (from the HTTP drain)
        and a later ``close()`` keeps waiting.
        """
        if self._closed:
            return
        self._draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        if self._loop is not None and self._thread is not None:
            future = asyncio.run_coroutine_threadsafe(
                self._shutdown_async(drain), self._loop
            )
            remaining = None if deadline is None else deadline - time.monotonic()
            future.result(remaining)
            self._loop.call_soon_threadsafe(self._loop.stop)
            remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
            self._thread.join(remaining)
            if self._thread.is_alive():
                raise TimeoutError(
                    f"gateway loop still running after {timeout} s; "
                    "call close() again to keep waiting"
                )
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        self.registry.close(drain=drain, timeout=remaining)
        self._closed = True

    def __enter__(self) -> "GatewayServer":
        return self.start() if self._thread is None else self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(drain=exc_type is None)

    def serve_forever(self, handle_signals: bool = True) -> None:
        """Block until :meth:`close` (or SIGTERM/SIGINT → graceful drain)."""
        stop = threading.Event()

        def _graceful(_signum, _frame) -> None:
            stop.set()

        if handle_signals:
            signal.signal(signal.SIGTERM, _graceful)
            signal.signal(signal.SIGINT, _graceful)
        while not stop.is_set() and not self._closed:
            stop.wait(0.2)
        if not self._closed:
            self.close(drain=True)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    asyncio.LimitOverrunError,
                ):
                    break
                parsed = self._parse_head(head)
                if parsed is None:
                    await self._write_response(
                        writer, 400, error_body("bad_request", "malformed HTTP request"),
                        keep_alive=False,
                    )
                    break
                method, target, headers = parsed
                try:
                    length = int(headers.get("content-length", "0"))
                except ValueError:
                    length = -1
                if length < 0 or length > self.max_body_bytes:
                    await self._write_response(
                        writer, 413,
                        error_body(
                            "body_too_large",
                            f"request body must be 0..{self.max_body_bytes} bytes",
                        ),
                        keep_alive=False,
                    )
                    break
                body = b""
                if length:
                    try:
                        body = await reader.readexactly(length)
                    except asyncio.IncompleteReadError:
                        break
                status, payload, extra = await self._dispatch(method, target, body)
                keep_alive = headers.get("connection", "keep-alive").lower() != "close"
                await self._write_response(
                    writer, status, payload, keep_alive=keep_alive, extra=extra
                )
                if not keep_alive:
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    def _parse_head(
        head: bytes,
    ) -> Optional[Tuple[str, str, Dict[str, str]]]:
        try:
            text = head.decode("latin-1")
        except UnicodeDecodeError:
            return None
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            return None
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                return None
            headers[name.strip().lower()] = value.strip()
        return parts[0].upper(), parts[1], headers

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: str,
        keep_alive: bool = True,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        body = payload.encode("utf-8")
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra or {}).items():
            lines.append(f"{name}: {value}")
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, str, Dict[str, str]]:
        path = target.split("?", 1)[0]
        try:
            if path == "/healthz" and method == "GET":
                self._requests["healthz"] += 1
                return 200, self._healthz_payload(), {}
            if path == "/v1/artifacts" and method == "GET":
                self._requests["artifacts"] += 1
                return 200, canonical_dumps({"artifacts": self.registry.describe()}), {}
            if path == "/v1/stats" and method == "GET":
                self._requests["stats"] += 1
                return 200, self._stats_payload(), {}
            if path.startswith("/v1/predict/"):
                if method != "POST":
                    return 405, error_body(
                        "method_not_allowed", f"{path} only accepts POST"
                    ), {}
                return await self._handle_predict(path[len("/v1/predict/"):], body)
            known = "/healthz, /v1/artifacts, /v1/stats, /v1/predict/<artifact>"
            return 404, error_body("not_found", f"no route {path}; endpoints: {known}"), {}
        except Exception as exc:
            self._requests["errors"] += 1
            return 500, error_body("internal", f"{type(exc).__name__}: {exc}"), {}

    def _healthz_payload(self) -> str:
        return canonical_dumps(
            {
                "status": "draining" if self._draining else "ok",
                "artifacts": self.registry.names(),
            }
        )

    def _stats_payload(self) -> str:
        document = self.registry.stats_payload()
        document["gateway"] = {
            "draining": bool(self._draining),
            "inflight": int(self._inflight),
            "requests": {key: int(value) for key, value in self._requests.items()},
        }
        return canonical_dumps(document)

    # ------------------------------------------------------------------
    # Predict
    # ------------------------------------------------------------------
    async def _handle_predict(
        self, name: str, body: bytes
    ) -> Tuple[int, str, Dict[str, str]]:
        self._requests["predict"] += 1
        if self._draining:
            self._requests["errors"] += 1
            return 503, error_body(
                "draining", "gateway is draining; no new work admitted"
            ), {}
        try:
            batch, encoding, session = self._parse_predict(name, body)
        except WireError as exc:
            self._requests["errors"] += 1
            return 400, error_body(exc.code, exc.message), {}
        except UnknownArtifact:
            self._requests["errors"] += 1
            return 404, error_body(
                "unknown_artifact",
                f"artifact {name!r} is not registered; see /v1/artifacts",
            ), {}
        rows = len(batch)
        try:
            self.registry.admit(name, rows)
        except AdmissionRejected as exc:
            self._requests["errors"] += 1
            return 429, error_body("admission_rejected", str(exc)), {
                "Retry-After": f"{max(0.0, exc.retry_after_s):g}"
            }
        self._inflight += 1
        try:
            loop = asyncio.get_running_loop()
            payload = await loop.run_in_executor(
                self._executor, self._predict_blocking, name, session, batch, encoding
            )
            return 200, payload, {}
        except QueueFull as exc:
            # Engine-level shed (satellite reuse): same 429 contract as
            # the registry budget, still counted in ServeStats.rejected.
            self._requests["errors"] += 1
            retry_after = self.registry.spec(name).retry_after_s
            return 429, error_body("queue_full", str(exc)), {
                "Retry-After": f"{max(0.0, retry_after):g}"
            }
        except EngineClosed as exc:
            self._requests["errors"] += 1
            return 503, error_body("engine_closed", str(exc)), {}
        finally:
            self._inflight -= 1
            self.registry.settle(name, rows)

    def _parse_predict(self, name: str, body: bytes):
        """Decode + validate a predict body. Raises WireError (→ 400)
        or UnknownArtifact (→ 404). Loads the artifact lazily."""
        document = canonical_loads(body)
        if not isinstance(document, dict):
            raise WireError(
                "bad_request", "request body must be a JSON object"
            )
        if "inputs" not in document:
            raise WireError("bad_request", 'request body is missing "inputs"')
        encoding = document.get("encoding", "list")
        if encoding not in ENCODINGS:
            raise WireError(
                "bad_encoding",
                f"unknown response encoding {encoding!r}; expected {ENCODINGS}",
            )
        unknown = set(document) - {"inputs", "encoding"}
        if unknown:
            raise WireError(
                "bad_request",
                f"request body has unknown fields {sorted(unknown)}",
            )
        array = decode_tensor(document["inputs"])
        session = self.registry.session(name)  # UnknownArtifact → 404
        batch = coerce_batch(
            array, session.artifact.manifest.input_shape, session.input_dtype
        )
        return batch, encoding, session

    def _predict_blocking(self, name, session, batch, encoding) -> str:
        """Executor-side predict: one submit per row so concurrent
        requests coalesce into shared micro-batches."""
        pendings = []
        try:
            for row in batch:
                pendings.append(session.submit(row))
        except QueueFull:
            # A mid-batch engine shed: the rows already admitted are
            # waited out (never silently dropped), then the whole
            # request sheds with 429 — the client retries it intact.
            for pending in pendings:
                pending.result(timeout=self.predict_timeout_s)
            raise
        outputs = [p.result(timeout=self.predict_timeout_s) for p in pendings]
        document = {
            "artifact": name,
            "backend": session.config.backend,
            "batch": len(batch),
            "input_dtype": str(session.input_dtype),
            "outputs": encode_tensor(np.stack(outputs), encoding),
            "request_ids": [int(p.request_id) for p in pendings],
            "engine_indices": [int(p.engine_index) for p in pendings],
            "latency_s": [
                None if p.latency_s is None else float(p.latency_s)
                for p in pendings
            ],
            "service_s": [
                None if p.service_s is None else float(p.service_s)
                for p in pendings
            ],
        }
        return canonical_dumps(document)
