"""Request-replay load generation and the sweepable serving benchmark.

:func:`replay_trace` is the one replay driver: it dispatches a seeded
:class:`~repro.serve.trace.TrafficTrace` (uniform / Poisson / bursty /
diurnal arrivals, mixed batch sizes) at its scheduled arrival
timestamps whether or not earlier answers are back, and reports
p50/p95/p99 latency, queue-wait vs service time, SLO attainment, and
the pool's scale events and chaos recovery. A closed-loop replay is
the degenerate ``backlog`` trace (every arrival at t=0) under a
``concurrency`` cap on outstanding rows.
:func:`verify_replay` re-runs the engines' recorded batches through the
models directly and checks the answers bitwise — the parity contract of
:mod:`repro.serve.engine`, exercised from the CLI via ``repro serve``;
pass ``expected`` to make partial coverage an error.

:func:`run_point` packages the whole thing (pretrained preset →
uniform-bit artifact → trace-driven replay vs sequential baseline,
optionally autoscaled and chaos-killed) as a runner unit, registered
as the ``serve-replay`` family in :mod:`repro.runner.registry`, so
sweeps can include serving benchmarks alongside accuracy grids.

The driver is duck-typed over the session: anything with
``input_dtype``/``submit``/``stats``/``engines``/``pool`` works, which
is how :class:`repro.gateway.client.GatewayReplayClient` replays the
same traces **over HTTP** against a live gateway and still verifies
parity with :func:`verify_replay` (the ``gateway-replay`` family in
:mod:`repro.gateway.replay`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.serve.artifact import (
    ArtifactManifest,
    ServingArtifact,
    build_serving_model,
    compile_artifact,
)
from repro.serve.pool import AutoscalePolicy
from repro.serve.session import ServeConfig, ServingSession, resolve_policy
from repro.serve.trace import TraceConfig, TrafficTrace, generate_trace


@dataclass
class ReplayRun:
    """One replay: the JSON-able report plus raw per-request data."""

    payload: Dict[str, object]
    outputs: np.ndarray = field(repr=False)
    """Logits, row ``i`` answering ``inputs[i]``."""

    request_ids: List[int] = field(default_factory=list, repr=False)
    """Engine-local request id of each input row (for batch replay)."""

    engine_indices: List[int] = field(default_factory=list, repr=False)
    """Pool engine that served each row; request ids are only unique
    per engine, so ``(engine_indices[i], request_ids[i])`` is the
    global identity of row ``i``."""


def cycle_inputs(images: np.ndarray, count: int) -> np.ndarray:
    """The replay trace: the first ``count`` images, cycling if short."""
    if len(images) == 0:
        raise ValueError("no images to replay")
    if count < 1:
        raise ValueError(f"replay needs at least one request, got {count}")
    indices = np.arange(count) % len(images)
    return np.asarray(images)[indices]


def verify_replay(
    session: ServingSession,
    inputs: np.ndarray,
    run: ReplayRun,
    expected: Optional[int] = None,
) -> int:
    """Bit-exact parity check: re-run every recorded batch directly.

    Requires the session's engines to record batches
    (``ServeConfig(record_batches=True)``). Each executed batch is
    replayed through the engine's own model in one forward — the same
    computation the engine performed — and compared to the served
    answers **bitwise**. Multi-engine sessions verify every engine
    against its own model clone (clones are bit-identical, so this is
    also cross-engine parity) — including engines an autoscaler has
    since retired or replaced, whose recorded batches remain readable.
    Returns the number of verified requests; raises ``AssertionError``
    on the first mismatch. Batches that also carried non-replay traffic
    (e.g. a ``warmup`` request whose input this function cannot know)
    are skipped — pass ``expected`` (your request count) to make
    partial coverage itself an ``AssertionError`` instead of a silently
    smaller return value.

    Integer-backend engines (``ServeConfig(backend="integer")``) get a
    second check on top of bit-exact self-parity: every verified batch
    is also run through a float64 build of the artifact's *float* model
    (whatever dtype the float backend serves it in) and the served
    answers must agree within the derived rescale bound
    (:func:`~repro.quant.integer.verify_integer_parity` — failure names
    the offending layer and max abs error).
    """
    from repro.quant.integer import verify_integer_parity
    from repro.tensor.tensor import Tensor, no_grad

    inputs = np.asarray(inputs, dtype=session.input_dtype)  # what the engines served
    records = session.engine_records()
    engine_indices = run.engine_indices
    if not engine_indices:
        if len(records) > 1:
            # Request ids are engine-local and collide across a pool:
            # without the engine map we would attribute rows to the
            # wrong engine and "verify" garbage. Fail loudly instead.
            raise ValueError(
                "ReplayRun carries no engine_indices but the session has "
                f"{len(records)} engines; record "
                "pending.engine_index alongside pending.request_id"
            )
        engine_indices = [0] * len(run.request_ids)
    float_reference = None
    verified = 0
    for engine_index, engine, model in records:
        integer_backend = getattr(model, "serving_backend", "float") == "integer"
        if integer_backend and float_reference is None:
            if session.artifact is None:
                raise ValueError(
                    "cannot bound-check an integer engine without the "
                    "session's artifact (the float reference)"
                )
            float_reference = build_serving_model(session.artifact, dtype=np.float64)
        index_of = {
            rid: row
            for row, (eng, rid) in enumerate(zip(engine_indices, run.request_ids))
            if eng == engine_index
        }
        for batch in engine.executed_batches():
            rows = [index_of[rid] for rid in batch if rid in index_of]
            if len(rows) != len(batch):
                continue  # batch contains non-replay traffic (e.g. warmup)
            batch_inputs = np.stack([inputs[row] for row in rows])
            with no_grad():
                reference = model(Tensor(batch_inputs)).data
            for position, row in enumerate(rows):
                if not np.array_equal(run.outputs[row], reference[position]):
                    raise AssertionError(
                        f"request {run.request_ids[row]} (engine {engine_index}, "
                        f"input row {row}) is not bit-exact with the model's "
                        f"forward on its executed batch"
                    )
                verified += 1
            if integer_backend:
                # Raises IntegerBackendParityError (an AssertionError)
                # naming the offending layer if the bound breaks.
                verify_integer_parity(model, float_reference, batch_inputs)
    if expected is not None and verified != expected:
        raise AssertionError(
            f"replay parity verified only {verified}/{expected} requests — "
            "executed batches carrying non-replay traffic (warmup, another "
            "client) were skipped; partial coverage is not proof of parity"
        )
    return verified


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
def replay_trace(
    session: ServingSession,
    images: np.ndarray,
    trace: "TrafficTrace",
    slo_ms: Optional[float] = None,
    chaos_kill_at_s: Optional[float] = None,
    result_timeout_s: float = 120.0,
    concurrency: Optional[int] = None,
) -> ReplayRun:
    """Drive ``session`` with a :class:`~repro.serve.trace.TrafficTrace`.

    The dispatcher is **open-loop**: request ``i`` is submitted at its
    scheduled arrival offset ``trace.arrivals_s[i]`` whether or not
    earlier requests have been answered — the queue is allowed to
    build, which is the whole point of a bursty trace. A request's
    ``batch_sizes[i]`` input rows are submitted back to back at its
    arrival; row ``r`` replays ``images[r % len(images)]``.

    ``concurrency`` caps the rows outstanding at once: before row ``r``
    is submitted the dispatcher waits for row ``r - concurrency`` to be
    answered. Over a ``backlog`` trace (every arrival at t=0) that is a
    closed-loop replay by ``concurrency`` synchronous clients, whose
    micro-batches can only form across clients.

    Latency accounting is per *request*, up to the completion of the
    request's last row. Uncapped, it is measured from the scheduled
    arrival — dispatcher lateness under overload counts against the
    server, as it would for a real client. Capped, it is measured from
    the request's dispatch, since a closed-loop client only sends once
    it has a free slot. Per-row queue-wait (``latency - service``) and
    service time come from the engines' own timestamps.

    ``chaos_kill_at_s`` arms a timer that kills one live engine's
    worker mid-replay (pools whose ``supports_chaos`` says the
    supervisor can replace it). Every request still completes
    bit-exact or raises; nothing is silently dropped.

    The returned payload reports p50/p95/p99 latency, queue-wait vs
    service time, SLO attainment against ``slo_ms``, and the pool's
    :meth:`~repro.serve.pool.EnginePool.describe_scaling` report —
    policy, scale and death events, engine lifetimes — in one shape
    for every pool.
    """
    if concurrency is not None and concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    n = trace.requests
    sizes = trace.batch_sizes.astype(int)
    rows = int(sizes.sum())
    # Cast once, up front, to the served model's own dtype: the parity
    # check must replay the same bytes the engines saw.
    row_inputs = cycle_inputs(np.asarray(images, dtype=session.input_dtype), rows)
    row_request = np.repeat(np.arange(n), sizes)

    pool = session.pool
    kill_timer: Optional[threading.Timer] = None
    killed: List[int] = []
    if chaos_kill_at_s is not None:
        if not pool.supports_chaos:
            raise ValueError(
                "chaos_kill_at_s needs a pool that can replace a killed "
                "engine (an artifact source); a bare-model pool would just "
                "fail the stranded requests"
            )
        kill_timer = threading.Timer(
            chaos_kill_at_s, lambda: killed.append(pool.chaos_kill())
        )
        kill_timer.daemon = True

    before = session.stats
    engines_start = len(session.engines)
    pendings = []
    dispatched_s = np.zeros(rows)
    started = time.monotonic()
    if kill_timer is not None:
        kill_timer.start()
    try:
        row = 0
        for i in range(n):
            target = started + float(trace.arrivals_s[i])
            while True:
                delay = target - time.monotonic()
                if delay <= 0:
                    break
                time.sleep(min(delay, 0.05))
            for _ in range(int(sizes[i])):
                if concurrency is not None and row >= concurrency:
                    pendings[row - concurrency].result(timeout=result_timeout_s)
                dispatched_s[row] = time.monotonic() - started
                pendings.append(session.submit(row_inputs[row]))
                row += 1
        # Failures raise here — a replay never swallows one.
        outputs = [p.result(timeout=result_timeout_s) for p in pendings]
    finally:
        if kill_timer is not None:
            kill_timer.cancel()
    wall_s = time.monotonic() - started
    after = session.stats

    # Identity is read *after* completion: a re-dispatched request's
    # (engine_index, request_id) points at the engine that answered it.
    request_ids = [p.request_id for p in pendings]
    engine_indices = [p.engine_index for p in pendings]

    row_latency = np.array([p.latency_s for p in pendings])
    row_service = np.array(
        [p.service_s if p.service_s is not None else 0.0 for p in pendings]
    )
    row_queue_wait = np.maximum(row_latency - row_service, 0.0)
    row_complete = dispatched_s + row_latency
    # Request completion = its last row's completion, measured against
    # the scheduled arrival, or against the first row's dispatch when
    # capped (a closed-loop client's clock starts when it sends).
    request_complete = np.zeros(n)
    np.maximum.at(request_complete, row_request, row_complete)
    if concurrency is None:
        request_start = np.asarray(trace.arrivals_s)
    else:
        request_start = dispatched_s[np.cumsum(sizes) - sizes]
    request_latency = request_complete - request_start

    latency_ms = request_latency * 1e3
    forwards = after.forwards - before.forwards
    served = after.served - before.served
    payload: Dict[str, object] = {
        "requests": int(n),
        "rows": int(rows),
        "trace": trace.to_payload(),
        "wall_s": float(wall_s),
        "throughput_rps": float(n / wall_s) if wall_s > 0 else 0.0,
        "rows_per_s": float(rows / wall_s) if wall_s > 0 else 0.0,
        "forwards": int(forwards),
        "mean_batch_size": float(served / forwards) if forwards else 0.0,
        "latency_ms": {
            "mean": float(latency_ms.mean()),
            "p50": float(np.percentile(latency_ms, 50)),
            "p95": float(np.percentile(latency_ms, 95)),
            "p99": float(np.percentile(latency_ms, 99)),
            "max": float(latency_ms.max()),
        },
        "queue_wait_ms": {
            "mean": float(row_queue_wait.mean() * 1e3),
            "p95": float(np.percentile(row_queue_wait, 95) * 1e3),
        },
        "service_ms": {
            "mean": float(row_service.mean() * 1e3),
            "p95": float(np.percentile(row_service, 95) * 1e3),
        },
        "slo_ms": None if slo_ms is None else float(slo_ms),
        "slo_attainment": (
            None if slo_ms is None else float((latency_ms <= slo_ms).mean())
        ),
        "engines": {
            "start": int(engines_start),
            "final": len(session.engines),
            "peak": int(pool.peak_engines),
        },
    }
    payload["autoscale"] = pool.describe_scaling()
    if concurrency is not None:
        payload["concurrency"] = int(concurrency)
    if chaos_kill_at_s is not None:
        payload["chaos"] = {
            "kill_at_s": float(chaos_kill_at_s),
            "killed_engine": killed[0] if killed else None,
        }
    return ReplayRun(
        payload=payload,
        outputs=np.stack(outputs),
        request_ids=request_ids,
        engine_indices=engine_indices,
    )


def render_trace_replay(payload: Dict[str, object], title: str = "trace replay") -> str:
    """Multi-line human rendering of a :func:`replay_trace` payload."""
    trace = payload["trace"]
    latency = payload["latency_ms"]
    queue_wait = payload["queue_wait_ms"]
    service = payload["service_ms"]
    engines = payload["engines"]
    load = trace["kind"]
    if load != "backlog":
        load += f" @ {trace['rate_rps']:g} rps"
    if payload.get("concurrency") is not None:
        load += f" x{payload['concurrency']} clients"
    lines = [
        f"{title} [{load}, seed {trace['seed']}]: {payload['requests']} requests "
        f"({payload['rows']} rows) in {payload['wall_s']:.3f} s -> "
        f"{payload['throughput_rps']:.1f} req/s | {payload['forwards']} forwards "
        f"(mean batch {payload['mean_batch_size']:.2f})",
        f"latency ms: mean {latency['mean']:.2f}, p50 {latency['p50']:.2f}, "
        f"p95 {latency['p95']:.2f}, p99 {latency['p99']:.2f}, "
        f"max {latency['max']:.2f} | queue-wait mean {queue_wait['mean']:.2f}, "
        f"service mean {service['mean']:.2f}",
    ]
    if payload.get("slo_ms") is not None:
        attainment = payload["slo_attainment"]
        verdict = "OK" if latency["p95"] <= payload["slo_ms"] else "MISS"
        lines.append(
            f"SLO {payload['slo_ms']:g} ms: {attainment * 100:.1f}% attained — "
            f"p95 vs SLO: {verdict} ({latency['p95']:.2f} vs "
            f"{payload['slo_ms']:g} ms)"
        )
    autoscale = payload.get("autoscale") or {}
    if autoscale.get("enabled"):
        policy = autoscale["policy"]
        lines.append(
            f"autoscale[{policy['min_engines']}..{policy['max_engines']}]: "
            f"{autoscale['scale_ups']} up, {autoscale['scale_downs']} down, "
            f"{autoscale['engine_deaths']} deaths, "
            f"{autoscale['redispatched']} redispatched; "
            f"peak {engines['peak']}, final {engines['final']} engines"
        )
        for event in autoscale["events"]:
            lines.append(
                f"  scale {event['action']} @{event['at_s']:.2f}s -> "
                f"{event['engines']} engines (engine {event['engine_index']}, "
                f"depth {event['queue_depth']:g})"
            )
    chaos = payload.get("chaos")
    if chaos:
        lines.append(
            f"chaos: killed engine {chaos['killed_engine']} "
            f"@{chaos['kill_at_s']:.2f}s; every request completed or raised"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The sweepable unit (registered as the "serve-replay" family)
# ----------------------------------------------------------------------
def build_uniform_artifact(
    model: str = "vgg-small",
    dataset: str = "synth10",
    scale: str = "tiny",
    seed: int = 0,
    bits: int = 2,
) -> ServingArtifact:
    """A serving artifact for a pretrained preset at uniform ``bits``.

    Serving cost does not depend on *which* arrangement the search
    found, so the benchmark unit skips the search/refine phases and
    quantizes the cached pretrained model uniformly.
    """
    from repro.experiments.presets import get_pretrained
    from repro.quant.qmodules import quantize_model, quantized_layers
    from repro.utils.misc import clone_module

    base, data, _accuracy = get_pretrained(model, dataset, scale=scale, seed=seed)
    student = clone_module(base)
    max_bits = max(4, int(bits))
    quantize_model(student, max_bits=max_bits)
    for layer in quantized_layers(student).values():
        layer.set_bits(np.full(layer.num_filters, int(bits), dtype=np.int64))
    manifest = ArtifactManifest(
        model=model,
        dataset=dataset,
        scale=scale,
        seed=seed,
        num_classes=data.num_classes,
        image_size=data.config.image_size,
        max_bits=max_bits,
        act_bits=None,
        extra={"uniform_bits": int(bits)},
    )
    return compile_artifact(student, manifest)


def build_replay_point(
    model: str,
    dataset: str,
    scale: str,
    seed: int,
    bits: int,
    trace: str,
    requests: int,
    rate_rps: float,
    batch_mix: tuple,
) -> Tuple[ServingArtifact, TrafficTrace, np.ndarray]:
    """The setup every replay grid point shares: the preset's
    uniform-``bits`` artifact, the seeded traffic trace, and the
    trace's input rows (test images, cycled)."""
    from repro.experiments.presets import get_dataset

    artifact = build_uniform_artifact(
        model=model, dataset=dataset, scale=scale, seed=seed, bits=bits
    )
    data = get_dataset(dataset, scale=scale, seed=seed)
    traffic = generate_trace(
        TraceConfig(
            kind=trace,
            requests=int(requests),
            rate_rps=float(rate_rps),
            seed=int(seed),
            batch_sizes=tuple(int(b) for b in batch_mix),
        )
    )
    return artifact, traffic, cycle_inputs(data.test_images, traffic.rows)


def replay_and_verify(
    artifact: ServingArtifact,
    config: ServeConfig,
    row_inputs: np.ndarray,
    traffic: TrafficTrace,
    slo_ms: float,
    chaos_kill_at_s: Optional[float] = None,
) -> Dict[str, object]:
    """Replay ``traffic`` on a fresh session over ``artifact`` and
    verify every row; returns the payload with ``verified_requests``.

    Parity is strict: a verified-request shortfall raises rather than
    shrinking a number nobody reads.
    """
    session = ServingSession(artifact, config=config)
    try:
        run = replay_trace(
            session,
            row_inputs,
            traffic,
            slo_ms=float(slo_ms),
            chaos_kill_at_s=chaos_kill_at_s,
        )
        run.payload["verified_requests"] = int(
            verify_replay(session, row_inputs, run, expected=traffic.rows)
        )
        return run.payload
    finally:
        session.close()


def run_point(
    model: str = "vgg-small",
    dataset: str = "synth10",
    scale: str = "tiny",
    seed: int = 0,
    bits: int = 2,
    requests: int = 64,
    trace: str = "uniform",
    rate_rps: float = 200.0,
    batch_mix: tuple = (1,),
    slo_ms: float = 50.0,
    batch_window_ms: float = 2.0,
    max_batch_size: int = 16,
    pool_size: int = 1,
    autoscale: bool = False,
    max_engines: int = 4,
    chaos: bool = False,
    compare_sequential: bool = True,
    backend: str = "float",
    pool: str = "thread",
    workers: int = 2,
) -> Dict[str, object]:
    """One serving-benchmark grid point (a runner-unit target).

    Serves a uniform-``bits`` artifact of the pretrained preset under a
    seeded open-loop traffic ``trace`` (see
    :data:`~repro.serve.trace.TRACE_KINDS`) — fanned out across
    ``pool_size`` engines leased from one artifact, or autoscaled
    between ``pool_size`` and ``max_engines`` from queue depth when
    ``autoscale`` is set — optionally against a sequential
    (``max_batch_size=1``, single-engine) baseline replaying the same
    trace, and returns the JSON-able report. The trace is seeded from
    ``seed``, so the same grid point always offers the identical load
    (same arrivals, same batch mix) and parity verification is strict:
    a verified-request shortfall raises rather than shrinking a number
    nobody reads. ``chaos`` kills one engine a third of the way into
    the trace; the pool supervisor replaces it. ``backend`` selects
    the execution path (``"float"`` or ``"integer"``) for every replay
    — including the sequential baseline — and integer replays
    additionally pass the rescale-bound check of :func:`verify_replay`.

    ``pool="process"`` serves the batched replay from ``workers``
    worker processes over one shared-memory artifact
    (:class:`~repro.serve.procpool.ProcessPlacement`) instead of
    thread engines, fixed or autoscaled alike; parity verification is
    unchanged — the parent's lease twins replay the worker-served
    batches bit-exactly. The sequential baseline always runs
    in-process (single thread engine) — it is the *batching* control,
    not the transport control. The knobs map straight onto
    :class:`~repro.serve.session.ServeConfig`, and any combination
    :func:`~repro.serve.session.resolve_policy` rejects raises before
    the artifact is built.
    """
    policy = None
    if autoscale:
        policy = AutoscalePolicy(
            min_engines=int(pool_size), max_engines=int(max_engines)
        )
    batched_config = ServeConfig(
        batch_window_s=batch_window_ms / 1e3,
        max_batch_size=max_batch_size,
        record_batches=True,
        engines=int(pool_size),
        autoscale=policy,
        backend=backend,
        pool=pool,
        workers=int(workers),
    )
    resolve_policy(batched_config)
    artifact, traffic, row_inputs = build_replay_point(
        model, dataset, scale, seed, bits, trace, requests, rate_rps, batch_mix
    )
    kill_at_s = 0.35 * max(traffic.duration_s, 1e-3) if chaos else None
    batched = replay_and_verify(
        artifact, batched_config, row_inputs, traffic, slo_ms, kill_at_s
    )
    payload: Dict[str, object] = {
        "model": model,
        "dataset": dataset,
        "scale": scale,
        "seed": int(seed),
        "bits": int(bits),
        "backend": backend,
        "pool_size": int(pool_size),
        "trace_kind": trace,
        "rate_rps": float(rate_rps),
        "autoscale": bool(autoscale),
        "max_engines": int(max_engines),
        "chaos": bool(chaos),
        "pool": pool,
        "workers": int(workers),
        "artifact_nbytes": int(artifact.nbytes),
        "payload_nbytes": int(artifact.payload_nbytes),
        "sidecar_nbytes": int(artifact.sidecar_nbytes),
        "batched": batched,
    }
    if compare_sequential:
        sequential_config = ServeConfig(
            batch_window_s=0.0,
            max_batch_size=1,
            record_batches=True,
            backend=backend,
        )
        sequential = replay_and_verify(
            artifact, sequential_config, row_inputs, traffic, slo_ms
        )
        payload["sequential"] = sequential
        if batched["wall_s"] > 0:
            payload["speedup"] = float(sequential["wall_s"] / batched["wall_s"])
    return payload


def render(payload: Dict[str, object]) -> str:
    """Human rendering of a :func:`run_point` payload."""
    process = payload.get("pool", "thread") == "process"
    if payload.get("autoscale"):
        notes = [
            f"autoscale {payload['pool_size']}..{payload['max_engines']}"
            + (" worker processes" if process else "")
        ]
    elif process:
        notes = [f"{payload['workers']} worker processes"]
    elif payload.get("pool_size", 1) != 1:
        notes = [f"pool {payload['pool_size']}"]
    else:
        notes = []
    if payload.get("chaos"):
        notes.append("chaos")
    if payload.get("backend", "float") != "float":
        notes.append(f"{payload['backend']} backend")
    pool_note = "".join(f", {note}" for note in notes)
    lines = [
        f"serve replay — {payload['model']} on {payload['dataset']} "
        f"({payload['scale']}, uniform {payload['bits']} bits, "
        f"seed {payload['seed']}{pool_note})",
        render_trace_replay(payload["batched"], title="micro-batched"),
    ]
    if "artifact_nbytes" in payload:
        lines.append(
            f"artifact: {payload['artifact_nbytes']} bytes "
            f"(payload {payload['payload_nbytes']}, "
            f"sidecar {payload['sidecar_nbytes']})"
        )
    if "sequential" in payload:
        lines.append(render_trace_replay(payload["sequential"], title="sequential"))
    if "speedup" in payload:
        lines.append(f"micro-batching speedup: x{payload['speedup']:.2f}")
    lines.append(
        "parity: "
        f"{payload['batched'].get('verified_requests', 0)} requests bit-exact"
    )
    return "\n".join(lines)
