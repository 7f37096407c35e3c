"""The gateway under test, run in its own process for ``gateway-poisson``.

    python3 perfbench/gateway_child.py [CPU,CPU...]

Serves the uniform-2-bit VGG-small artifact on a loopback
``GatewayServer`` (one float thread engine, ``record_batches=True``)
so the load generator's JSON/b64 work does not share this process's
interpreter lock. Set-up is done eleven times and the median reported.

Talks to the load generator over stdin/stdout, one line each way:

``READY {json}``  written once serving (port, input dtype, set-up times);
``trace``         start recording spans around the wire codec calls;
``report``        replay every served row through the engine's model
                  (``verify_replay`` at full coverage) and answer
                  ``REPORT {json}``: the verified count, per-row digests
                  and server statistics;
``close``         drain and shut down, answer ``bye`` and exit.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

if len(sys.argv) > 1:
    # Pin before numpy loads, so OpenBLAS sizes its thread pool to the pin.
    os.sched_setaffinity(0, {int(cpu) for cpu in sys.argv[1].split(",")})

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import OUT, SRC, ThreadErrors, digest, median  # noqa: E402

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

ARTIFACT = "vgg"
SETUPS = 11
WIRE_CALLS = ("canonical_loads", "decode_tensor", "coerce_batch", "encode_tensor", "canonical_dumps")


class Recorder:
    """Keeps every row the session was asked to serve, with its pending answer."""

    def __init__(self):
        self.lock = threading.Lock()
        self.rows = []

    def install(self) -> None:
        from repro.serve.session import ServingSession

        original = ServingSession.submit
        recorder = self

        def submit(session, x):
            pending = original(session, x)
            with recorder.lock:
                recorder.rows.append((np.array(x, dtype=session.input_dtype), pending))
            return pending

        ServingSession.submit = submit


def start_gateway():
    from repro.gateway import ArtifactRegistry, ArtifactSpec, GatewayServer
    from wl_serve import build_artifact

    registry = ArtifactRegistry()
    registry.register(
        ArtifactSpec(
            name=ARTIFACT,
            source=build_artifact(),
            batch_window_s=0.002,
            max_batch_size=16,
            record_batches=True,
        ),
        preload=True,
    )
    registry.session(ARTIFACT).warmup()
    return registry, GatewayServer(registry, port=0).start()


def report(registry, recorder: Recorder, tracer) -> dict:
    from repro.serve import ReplayRun, verify_replay

    session = registry.session(ARTIFACT)
    with recorder.lock:
        rows = list(recorder.rows)
    inputs = np.stack([row for row, _ in rows])
    pendings = [pending for _, pending in rows]
    outputs = np.stack([pending.result(timeout=60) for pending in pendings])
    run = ReplayRun(
        payload={},
        outputs=outputs,
        request_ids=[p.request_id for p in pendings],
        engine_indices=[p.engine_index for p in pendings],
    )
    error = None
    try:
        verified = verify_replay(session, inputs, run, expected=len(rows))
    except AssertionError as failure:
        verified, error = 0, str(failure)
    stats = session.stats
    document = {
        "verified": verified,
        "error": error,
        "rows": [
            [int(p.engine_index), int(p.request_id), digest(x.tobytes()), digest(y.tobytes())]
            for x, y, p in zip(inputs, outputs, pendings)
        ],
        "forwards": stats.forwards,
        "served": stats.completed,
        "rejected": registry.admission_stats(ARTIFACT)["rejected"] + stats.rejected,
    }
    if tracer is not None:
        summary = tracer.summary()
        requests = summary.get("gateway.wire.canonical_loads", {"count": 0})["count"]
        codec_s = sum(summary.get(f"gateway.wire.{name}", {"total_s": 0.0})["total_s"] for name in WIRE_CALLS)
        document["codec_us"] = 1e6 * codec_s / max(1, requests)
    return document


def main() -> int:
    errors = ThreadErrors().install()
    recorder = Recorder()
    recorder.install()
    setups = []
    for attempt in range(SETUPS):
        started = time.perf_counter()
        registry, server = start_gateway()
        setups.append(time.perf_counter() - started)
        if attempt < SETUPS - 1:
            server.close(drain=True)
    with recorder.lock:
        recorder.rows.clear()
    session = registry.session(ARTIFACT)
    print("READY " + json.dumps({
        "port": server.port,
        "input_dtype": str(session.input_dtype),
        "setup_s": median(setups),
        "setups_s": setups,
    }), flush=True)

    tracer = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace":
                import repro.gateway.server as server_module
                from tracer import Tracer

                tracer = Tracer()
                for name in WIRE_CALLS:
                    # The server imported the codec by name: wrap its bindings.
                    tracer.wrap(server_module, name, f"gateway.wire.{name}")
                print("ok", flush=True)
            elif command == "report":
                if tracer is not None:
                    tracer.restore()
                document = report(registry, recorder, tracer)
                document["thread_errors"] = errors.metrics()
                print("REPORT " + json.dumps(document, allow_nan=False), flush=True)
            elif command == "close":
                break
    finally:
        server.close(drain=True)
        errors.uninstall()
        if tracer is not None:
            tracer.dump(OUT / f"spans-gateway-child-{os.getpid()}.jsonl")
    print("bye", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
