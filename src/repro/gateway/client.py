"""HTTP clients for the gateway: one-shot calls and the replay transport.

:class:`GatewayClient` is a thin, thread-safe wrapper over
``http.client`` (stdlib, keep-alive, one connection per calling
thread) for the gateway's four endpoints.

:class:`GatewayReplayClient` is the **HTTP transport for replay**: it
exposes the duck-typed surface
:func:`~repro.serve.replay.replay_trace` drives — ``input_dtype``,
``submit()`` returning a :class:`~repro.serve.engine.PendingPrediction`,
``stats``, ``engines``, ``pool`` — but every ``submit`` becomes a
single-row ``POST /v1/predict/<artifact>`` executed by a worker-thread
pool, so concurrent rows coalesce in the *server's* micro-batches.
The server's per-row ``(engine_index, request_id)`` identities and
service times are written back into the pending, which makes the
returned :class:`~repro.serve.replay.ReplayRun` directly verifiable
against the server-side session with
:func:`~repro.serve.replay.verify_replay` — the over-the-wire parity
contract. Outputs cross the wire base64-encoded (bit-identical raw
buffers), so "bit-exact" survives the socket.
"""

from __future__ import annotations

import http.client
import queue
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import numpy as np

from repro.gateway.wire import canonical_dumps, canonical_loads, decode_tensor, encode_tensor
from repro.serve.engine import PendingPrediction, ServeStats


class GatewayHTTPError(RuntimeError):
    """A non-2xx gateway response, carrying the decoded error envelope."""

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after_s: Optional[float] = None,
    ):
        super().__init__(f"HTTP {status} [{code}]: {message}")
        self.status = int(status)
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s


def stats_from_wire(document: Dict[str, object]) -> ServeStats:
    """Rebuild a (partial) :class:`ServeStats` from its ``to_dict`` wire
    form — the counters replay reporting reads; the latency sample
    window does not cross the wire."""
    stats = ServeStats()
    for field in (
        "requests",
        "completed",
        "errors",
        "cancelled",
        "rejected",
        "forwards",
        "coalesced_forwards",
        "batched_requests",
        "max_batch_seen",
        "max_queue_depth",
        "scale_ups",
        "scale_downs",
        "engine_deaths",
        "redispatched",
        "artifact_nbytes",
        "payload_nbytes",
        "sidecar_nbytes",
        "acc_bits_used",
    ):
        setattr(stats, field, int(document.get(field, 0)))
    stats.total_forward_s = float(document.get("total_forward_s", 0.0))
    stats.backend = str(document.get("backend", "float"))
    return stats


class GatewayClient:
    """Keep-alive HTTP client for one gateway (thread-safe)."""

    def __init__(self, base_url: str, timeout_s: float = 120.0):
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(
                f"gateway client speaks plain http, got {parts.scheme!r}"
            )
        if parts.hostname is None or parts.port is None:
            raise ValueError(
                f"gateway URL needs host:port, got {base_url!r}"
            )
        self.host = parts.hostname
        self.port = int(parts.port)
        self.timeout_s = float(timeout_s)
        self._local = threading.local()
        self._connections_lock = threading.Lock()
        self._connections: List[http.client.HTTPConnection] = []  # guarded-by: _connections_lock

    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s
            )
            self._local.connection = connection
            with self._connections_lock:
                self._connections.append(connection)
        return connection

    def close(self) -> None:
        """Close every per-thread connection opened so far."""
        with self._connections_lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            connection.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    def request(
        self, method: str, path: str, body: Optional[str] = None
    ) -> Tuple[int, object, Dict[str, str]]:
        """One round-trip; returns (status, parsed JSON, headers)."""
        connection = self._connection()
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except (http.client.HTTPException, ConnectionError, OSError):
            # A dropped keep-alive connection: reconnect once.
            connection.close()
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        return (
            response.status,
            canonical_loads(raw),
            {name.lower(): value for name, value in response.getheaders()},
        )

    def _checked(self, method: str, path: str, body: Optional[str] = None) -> object:
        status, document, headers = self.request(method, path, body=body)
        if status != 200:
            error = (
                document.get("error", {}) if isinstance(document, dict) else {}
            )
            retry_after = headers.get("retry-after")
            raise GatewayHTTPError(
                status,
                str(error.get("code", "unknown")),
                str(error.get("message", document)),
                retry_after_s=None if retry_after is None else float(retry_after),
            )
        return document

    # ------------------------------------------------------------------
    def healthz(self) -> Dict[str, object]:
        return self._checked("GET", "/healthz")

    def artifacts(self) -> List[Dict[str, object]]:
        return self._checked("GET", "/v1/artifacts")["artifacts"]

    def stats(self) -> Dict[str, object]:
        return self._checked("GET", "/v1/stats")

    def predict_raw(
        self, artifact: str, inputs: np.ndarray, encoding: str = "b64"
    ) -> Dict[str, object]:
        """Full predict response (outputs still wire-encoded)."""
        body = canonical_dumps(
            {"inputs": encode_tensor(np.asarray(inputs), "b64"), "encoding": encoding}
        )
        return self._checked("POST", f"/v1/predict/{artifact}", body=body)

    def predict(
        self, artifact: str, inputs: np.ndarray, encoding: str = "b64"
    ) -> np.ndarray:
        """Logits for one example or a batch (decoded)."""
        document = self.predict_raw(artifact, inputs, encoding=encoding)
        outputs = decode_tensor(document["outputs"])
        return outputs[0] if np.asarray(inputs).ndim == 3 else outputs

    def artifact_stats(self, artifact: str) -> Dict[str, object]:
        document = self.stats()["artifacts"].get(artifact)
        if document is None:
            raise KeyError(f"artifact {artifact!r} is not registered")
        return document

    def serve_stats(self, artifact: str) -> ServeStats:
        document = self.artifact_stats(artifact)
        return stats_from_wire(document.get("serve", {}))


class _WireEngine:
    """Placeholder engine handle sized to the server's pool (the replay
    reporter only takes ``len(engines)``)."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index


class GatewayReplayClient:
    """Session-shaped HTTP transport for :func:`replay_trace`.

    ``workers`` caps concurrent in-flight HTTP requests: ``submit`` is
    non-blocking (open-loop dispatch stays on schedule) and each worker
    thread answers one row at a time over its keep-alive connection.
    Latency is measured client-side (submit → decoded response, i.e.
    including the wire), while ``service_s`` is the server engine's own
    forward wall-clock — so queue-wait attribution stays honest.

    The artifact must already be loaded on the server (register with
    ``preload=True``): its input dtype/shape come from
    ``/v1/artifacts``, and probing with a throwaway predict would
    pollute the parity replay's request accounting.
    """

    def __init__(
        self,
        base_url: str,
        artifact: str,
        workers: int = 8,
        timeout_s: float = 120.0,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.artifact = artifact
        self.client = GatewayClient(base_url, timeout_s=timeout_s)
        described = {doc["name"]: doc for doc in self.client.artifacts()}
        if artifact not in described:
            raise KeyError(f"artifact {artifact!r} is not registered on the gateway")
        document = described[artifact]
        if not document.get("loaded") or "input_dtype" not in document:
            raise RuntimeError(
                f"artifact {artifact!r} is not loaded on the gateway; "
                "register it with preload=True (a probe predict here "
                "would contaminate the parity replay)"
            )
        self.input_dtype = np.dtype(document["input_dtype"])
        self.input_shape = tuple(int(d) for d in document["input_shape"])
        self._engine_count = int(document.get("live_engines", 1))
        self._jobs: "queue.Queue" = queue.Queue()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"replay-client-{index}", daemon=True
            )
            for index in range(workers)
        ]
        for worker in self._workers:
            worker.start()
        self._closed = False

    # -- the duck-typed surface replay_trace drives --------------------
    supports_chaos = False
    """No chaos hook over the wire: engine deaths live on the server,
    behind its own pool supervisor, not on this handle."""

    @property
    def pool(self) -> "GatewayReplayClient":
        """The replay reporter's pool probe: this handle answers the
        :class:`~repro.serve.pool.EnginePool` introspection surface
        itself (``supports_chaos``/``describe_scaling``/
        ``peak_engines``) from the server's ``/v1/stats``."""
        return self

    @property
    def peak_engines(self) -> int:
        """The server pool's high-water engine count."""
        return int(self.describe_scaling()["peak_engines"])

    def describe_scaling(self) -> Dict[str, object]:
        """The server pool's own ``describe_scaling()`` report."""
        return self.client.artifact_stats(self.artifact)["scaling"]

    @property
    def engines(self) -> Tuple[_WireEngine, ...]:
        described = {doc["name"]: doc for doc in self.client.artifacts()}
        document = described.get(self.artifact, {})
        self._engine_count = int(document.get("live_engines", self._engine_count))
        return tuple(_WireEngine(index) for index in range(self._engine_count))

    @property
    def stats(self) -> ServeStats:
        return self.client.serve_stats(self.artifact)

    def submit(self, x) -> PendingPrediction:
        if self._closed:
            raise RuntimeError("replay client is closed")
        array = np.asarray(x, dtype=self.input_dtype)
        pending = PendingPrediction(request_id=-1)
        self._jobs.put((array, pending, time.monotonic()))
        return pending

    # ------------------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                return
            array, pending, submitted_at = job
            try:
                document = self.client.predict_raw(
                    self.artifact, array, encoding="b64"
                )
                outputs = decode_tensor(document["outputs"])
                pending.request_id = int(document["request_ids"][0])
                pending.engine_index = int(document["engine_indices"][0])
                service = document["service_s"][0]
                pending._finish(
                    value=outputs[0],
                    latency_s=time.monotonic() - submitted_at,
                    service_s=None if service is None else float(service),
                )
            except BaseException as exc:
                pending._finish(error=exc)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for _worker in self._workers:
            self._jobs.put(None)
        for worker in self._workers:
            worker.join()
        self.client.close()

    def __enter__(self) -> "GatewayReplayClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
