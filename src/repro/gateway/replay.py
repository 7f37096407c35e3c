"""Over-the-wire parity replay: the ``gateway-replay`` runner unit.

:func:`run_point` stands up a real loopback gateway — registry,
admission budget, optionally autoscaled engine pool — registers a
uniform-bit CQW1 artifact, and drives the seeded traffic trace of
:func:`repro.serve.replay.replay_trace` **through HTTP**: every row is
a ``POST /v1/predict`` from the
:class:`~repro.gateway.client.GatewayReplayClient` worker pool, and
micro-batches form on the server across concurrent sockets. The served
answers come back base64-encoded (bit-identical buffers) and are then
checked against the *server-side* session with
:func:`~repro.serve.replay.verify_replay` — bit-exact for the float
backend, rescale-bounded on top for the integer backend, with
``expected=rows`` so partial coverage is an error, not a smaller
number. An optional in-process replay of the same trace (same
artifact, same serve config, no sockets) yields the HTTP overhead
ratio the gateway benchmark tracks.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.gateway.client import GatewayReplayClient
from repro.gateway.registry import ArtifactRegistry, ArtifactSpec
from repro.gateway.server import GatewayServer
from repro.serve.pool import AutoscalePolicy
from repro.serve.replay import (
    build_replay_point,
    render_trace_replay,
    replay_and_verify,
    replay_trace,
    verify_replay,
)


def run_point(
    model: str = "vgg-small",
    dataset: str = "synth10",
    scale: str = "tiny",
    seed: int = 0,
    bits: int = 2,
    requests: int = 48,
    trace: str = "uniform",
    rate_rps: float = 150.0,
    batch_mix: tuple = (1,),
    slo_ms: float = 100.0,
    batch_window_ms: float = 2.0,
    max_batch_size: int = 16,
    pool_size: int = 1,
    autoscale: bool = False,
    max_engines: int = 4,
    backend: str = "float",
    workers: int = 8,
    pending_budget: int = 256,
    compare_inprocess: bool = True,
    pool: str = "thread",
    pool_workers: int = 2,
) -> Dict[str, object]:
    """One gateway-replay grid point (a runner-unit target).

    The same serving scenario as :func:`repro.serve.replay.run_point`,
    but over a real socket: the trace is dispatched open-loop by
    ``workers`` HTTP client threads against a loopback
    :class:`~repro.gateway.server.GatewayServer`, and parity is
    verified on the server-side session's recorded batches. The
    in-process comparison replays the identical trace against a
    separate session built from the same artifact and serve config,
    yielding ``overhead.wall_ratio`` (wire wall-clock over in-process
    wall-clock).

    ``pool="process"`` serves the artifact behind the gateway from
    ``pool_workers`` worker processes over one shared-memory copy
    (:class:`~repro.serve.procpool.ProcessPlacement`); the HTTP
    surface, admission control and parity verification are unchanged —
    the registry consumes the one :class:`~repro.serve.pool.EnginePool`.
    The knobs map straight onto an :class:`ArtifactSpec`, which
    :meth:`ArtifactRegistry.register` validates.
    """
    artifact, traffic, row_inputs = build_replay_point(
        model, dataset, scale, seed, bits, trace, requests, rate_rps, batch_mix
    )

    policy: Optional[AutoscalePolicy] = None
    if autoscale:
        policy = AutoscalePolicy(
            min_engines=int(pool_size), max_engines=int(max_engines)
        )
    name = f"{model}-{dataset}-b{int(bits)}"
    spec = ArtifactSpec(
        name=name,
        source=artifact,
        backend=backend,
        engines=int(pool_size),
        autoscale=policy,
        batch_window_s=float(batch_window_ms) / 1e3,
        max_batch_size=int(max_batch_size),
        record_batches=True,
        pending_budget=int(pending_budget),
        pool=pool,
        workers=int(pool_workers),
    )
    registry = ArtifactRegistry()
    registry.register(spec, preload=True)
    server = GatewayServer(registry)
    server.start()
    try:
        started = time.monotonic()
        with GatewayReplayClient(server.url, name, workers=int(workers)) as client:
            run = replay_trace(
                client, row_inputs, traffic, slo_ms=float(slo_ms)
            )
        wire_wall_s = time.monotonic() - started
        session = registry.session(name)
        verified = int(
            verify_replay(session, row_inputs, run, expected=traffic.rows)
        )
        run.payload["verified_requests"] = verified
        gateway_stats = registry.stats_payload()["artifacts"][name]
    finally:
        server.close(drain=True)

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
        "workers": int(workers),
        "pending_budget": int(pending_budget),
        "pool": pool,
        "pool_workers": int(pool_workers),
        "artifact_nbytes": int(artifact.nbytes),
        "admission": gateway_stats["admission"],
        "wire": run.payload,
    }
    if compare_inprocess:
        baseline = replay_and_verify(
            artifact, spec, row_inputs, traffic, slo_ms
        )
        payload["inprocess"] = baseline
        inprocess_wall = float(baseline["wall_s"])
        payload["overhead"] = {
            "wire_wall_s": float(wire_wall_s),
            "inprocess_wall_s": inprocess_wall,
            "wall_ratio": (
                float(run.payload["wall_s"] / inprocess_wall)
                if inprocess_wall > 0
                else 0.0
            ),
        }
    return payload


def render(payload: Dict[str, object]) -> str:
    """Human rendering of a :func:`run_point` payload."""
    pool_note = (
        f", pool {payload['pool_size']}" if payload.get("pool_size", 1) != 1 else ""
    )
    if payload.get("autoscale"):
        pool_note = f", autoscale {payload['pool_size']}..{payload['max_engines']}"
    if payload.get("backend", "float") != "float":
        pool_note += f", {payload['backend']} backend"
    admission = payload["admission"]
    lines = [
        f"gateway replay — {payload['model']} on {payload['dataset']} "
        f"({payload['scale']}, uniform {payload['bits']} bits, "
        f"seed {payload['seed']}{pool_note}, {payload['workers']} wire clients)",
        render_trace_replay(payload["wire"], title="over-the-wire"),
        f"admission: budget {admission['budget']} rows, "
        f"peak {admission['peak_pending']} pending, "
        f"{admission['admitted']} admitted, "
        f"{admission['rejected']} shed",
    ]
    if "inprocess" in payload:
        lines.append(render_trace_replay(payload["inprocess"], title="in-process"))
        overhead = payload["overhead"]
        lines.append(
            f"HTTP overhead: wall x{overhead['wall_ratio']:.2f} "
            f"({overhead['wire_wall_s']:.3f} s wire vs "
            f"{overhead['inprocess_wall_s']:.3f} s in-process)"
        )
    lines.append(
        "parity: "
        f"{payload['wire'].get('verified_requests', 0)} wire-served requests "
        "bit-exact against the server session"
    )
    return "\n".join(lines)
