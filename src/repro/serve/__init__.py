"""repro.serve — batched artifact-serving inference.

Closes the search → export → pack → **serve** loop: a CQW1 artifact
(written by ``repro quantize --save-artifact``) is loaded through a
content-hash-keyed LRU cache (:mod:`~repro.serve.artifact`), its
mixed-precision model reconstructed bit-exactly from the integer codes,
and served by an :class:`~repro.serve.engine.InferenceEngine` whose
dynamic micro-batching coalesces concurrent requests into shared
forwards. The cache is **copy-on-lease**: every engine gets a private
clone of the cached prototype. One supervised
:class:`~repro.serve.pool.EnginePool` fans requests across the
engines; it is built from a *placement* — in-process threads
(:class:`~repro.serve.pool.ThreadPlacement`) or worker processes
executing straight from one shared-memory copy of the artifact
(:class:`~repro.serve.procpool.ProcessPlacement`) — and an
:class:`~repro.serve.pool.AutoscalePolicy`, where a fixed fan-out is
a policy with ``min_engines == max_engines``.
:class:`~repro.serve.session.ServingSession` is the synchronous facade
(``ServeConfig`` picks placement and fan-out, and
:func:`~repro.serve.session.resolve_policy` holds every rule about how
those knobs combine);
:mod:`~repro.serve.replay` generates request-replay load from one
driver over a seeded :class:`~repro.serve.trace.TrafficTrace` —
open-loop arrivals, or a ``backlog`` drained by capped closed-loop
clients — and checks every served answer bitwise.
Engines forward a compiled channel-last :class:`~repro.serve.plan.ServingPlan`;
``ServeConfig(backend="integer")`` runs the packed codes with integer
MACs in the same plan, within a derived rescale bound of the float model.

Design doc: ``docs/architecture.md`` (Serving section).
"""

from repro.serve.artifact import (
    DEFAULT_CACHE,
    DEFAULT_SIDECAR_DTYPE,
    SIDECAR_DTYPES,
    ArtifactCache,
    ArtifactCacheStats,
    ArtifactManifest,
    ModelLease,
    ServingArtifact,
    artifact_from_result,
    build_serving_model,
    compile_artifact,
    load_artifact,
    load_artifact_bytes,
    save_artifact,
    serialize_artifact,
)
from repro.serve.artifact import SharedArtifactSegment
from repro.serve.engine import (
    EngineClosed,
    EngineDied,
    InferenceEngine,
    PendingPrediction,
    QueueFull,
    RequestCancelled,
    ServeStats,
    ShutdownTimeout,
    combine_serve_stats,
)
from repro.quant.integer import (
    INTEGER_PARITY_SAFETY,
    IntegerBackendParityError,
    integer_parity_rtol,
    verify_integer_parity,
)
from repro.serve.plan import ServingPlan, compile_integer_serving, compile_plan
from repro.serve.pool import (
    AutoscaleDecider,
    AutoscalePolicy,
    EnginePool,
    ScaleEvent,
    ThreadPlacement,
)
from repro.serve.procpool import ProcessPlacement, ProcessWorkerHandle
from repro.serve.replay import (
    ReplayRun,
    cycle_inputs,
    render_trace_replay,
    replay_trace,
    verify_replay,
)
from repro.serve.session import ServeConfig, ServingSession, resolve_policy
from repro.serve.trace import (
    TRACE_KINDS,
    TraceConfig,
    TrafficTrace,
    generate_trace,
)

__all__ = [
    "ArtifactCache",
    "ArtifactCacheStats",
    "ArtifactManifest",
    "AutoscaleDecider",
    "AutoscalePolicy",
    "DEFAULT_CACHE",
    "DEFAULT_SIDECAR_DTYPE",
    "EngineClosed",
    "EngineDied",
    "EnginePool",
    "INTEGER_PARITY_SAFETY",
    "InferenceEngine",
    "IntegerBackendParityError",
    "ModelLease",
    "PendingPrediction",
    "ProcessPlacement",
    "ProcessWorkerHandle",
    "QueueFull",
    "ReplayRun",
    "RequestCancelled",
    "SIDECAR_DTYPES",
    "ScaleEvent",
    "ServeConfig",
    "ServeStats",
    "SharedArtifactSegment",
    "ServingArtifact",
    "ServingPlan",
    "ServingSession",
    "ShutdownTimeout",
    "TRACE_KINDS",
    "ThreadPlacement",
    "TraceConfig",
    "TrafficTrace",
    "artifact_from_result",
    "build_serving_model",
    "combine_serve_stats",
    "compile_artifact",
    "compile_plan",
    "compile_integer_serving",
    "cycle_inputs",
    "generate_trace",
    "integer_parity_rtol",
    "load_artifact",
    "load_artifact_bytes",
    "render_trace_replay",
    "replay_trace",
    "resolve_policy",
    "save_artifact",
    "serialize_artifact",
    "verify_integer_parity",
    "verify_replay",
]
