"""Gateway overhead benchmark: the HTTP round-trip guard.

Serves the same uniform-2-bit VGG-small artifact (the serving
benchmarks' pinned preset) over the same 96-request closed-loop load
twice — once in process (``session.submit`` from client threads) and
once **over the wire** (``POST /v1/predict`` through keep-alive
connections against a loopback :class:`GatewayServer`) — and asserts
the engineering contract of ``repro.gateway``:

* the wire path costs **<= 3x** the in-process wall clock (measured
  ~x1.1-1.6: the stdlib HTTP hop plus base64 framing is small next to
  a VGG forward, and server-side micro-batching still works because
  concurrent sockets share engine batches),
* every wire-served answer is **bit-exact** with the server engines'
  recorded batches (:func:`verify_replay` with full coverage — the
  parity contract survives the socket),
* the gateway sheds nothing at this load: zero admission rejections,
  every request answered exactly once.

The ratio ceiling is deliberately loose (3x vs the ~1.6x measured) so
scheduler jitter on a shared CI runner cannot flip it; a regression
that matters — per-request reconnects, serialized predicts, a lost
micro-batch path — lands far above it.
"""

import threading
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.render import ascii_table
from repro.experiments.presets import get_dataset
from repro.gateway import (
    ArtifactRegistry,
    ArtifactSpec,
    GatewayClient,
    GatewayServer,
)
from repro.serve import ReplayRun, ServeConfig, ServingSession, cycle_inputs, verify_replay
from repro.serve.replay import build_uniform_artifact

REQUESTS = 96
CLIENTS = 8
MAX_WALL_RATIO = 3.0  # recorded floor: wire must stay under 3x in-process


def reassociation_atol(model, outputs: np.ndarray) -> float:
    """How far two evaluations of ``model`` on different batch
    compositions may differ in the dtype of ``outputs``.

    The GEMMs sum each output in an order that depends on the batch
    size, and a reordered sum of ``n`` terms typically moves by
    ``sqrt(n)`` ulps of its magnitude. Each weighted layer adds such a
    term (``n`` is its fan-in); the total is scaled to the largest
    logit, the magnitude the last layer's sums carry.
    """
    eps = float(np.finfo(outputs.dtype).eps)
    ulps = sum(
        np.sqrt(np.prod(param.data.shape[1:]))
        for _, param in model.named_parameters()
        if param.data.ndim > 1
    )
    return eps * float(ulps) * float(np.abs(outputs).max())


def _inprocess_round(artifact, inputs):
    session = ServingSession(
        artifact,
        config=ServeConfig(batch_window_s=0.002, max_batch_size=16),
    )
    try:
        outputs = [None] * len(inputs)

        def client(offset):
            for index in range(offset, len(inputs), CLIENTS):
                outputs[index] = session.submit(inputs[index]).result()

        threads = [
            threading.Thread(target=client, args=(offset,))
            for offset in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        return wall, np.stack(outputs)
    finally:
        session.close()


def _wire_round(artifact, inputs):
    registry = ArtifactRegistry()
    registry.register(
        ArtifactSpec(
            name="vgg",
            source=artifact,
            batch_window_s=0.002,
            max_batch_size=16,
            record_batches=True,
        ),
        preload=True,
    )
    server = GatewayServer(registry)
    server.start()
    try:
        outputs = [None] * len(inputs)
        request_ids = [0] * len(inputs)
        engine_indices = [0] * len(inputs)

        def client(offset):
            with GatewayClient(server.url) as http_client:
                for index in range(offset, len(inputs), CLIENTS):
                    document = http_client.predict_raw("vgg", inputs[index])
                    from repro.gateway import decode_tensor

                    outputs[index] = decode_tensor(document["outputs"])[0]
                    request_ids[index] = document["request_ids"][0]
                    engine_indices[index] = document["engine_indices"][0]

        threads = [
            threading.Thread(target=client, args=(offset,))
            for offset in range(CLIENTS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        run = ReplayRun(
            payload={},
            outputs=np.stack(outputs),
            request_ids=request_ids,
            engine_indices=engine_indices,
        )
        session = registry.session("vgg")
        verified = verify_replay(session, inputs, run, expected=len(inputs))
        admission = registry.admission_stats("vgg")
        stats = session.stats
        return wall, np.stack(outputs), verified, admission, stats
    finally:
        server.close(drain=True)


def test_gateway_http_overhead(benchmark):
    artifact = build_uniform_artifact(
        model="vgg-small", dataset="synth10", scale="tiny", seed=0, bits=2
    )
    dataset = get_dataset("synth10", scale="tiny", seed=0)
    inputs = cycle_inputs(dataset.test_images, REQUESTS)

    def run_both():
        # Best-of-3 per mode, interleaved: the guard measures the HTTP
        # hop's cost, not scheduler noise on a shared CI runner.
        wire_rounds = []
        inprocess_rounds = []
        for _ in range(3):
            wire_rounds.append(_wire_round(artifact, inputs))
            inprocess_rounds.append(_inprocess_round(artifact, inputs))
        return (
            min(wire_rounds, key=lambda round_: round_[0]),
            min(inprocess_rounds, key=lambda round_: round_[0]),
        )

    (wire_wall, wire_out, verified, admission, stats), (
        inprocess_wall,
        inprocess_out,
    ) = run_once(benchmark, run_both)

    ratio = wire_wall / inprocess_wall
    print()
    print(
        ascii_table(
            ["path", "wall s", "req/s", "mean batch"],
            [
                [
                    "in-process",
                    f"{inprocess_wall:.3f}",
                    f"{REQUESTS / inprocess_wall:.1f}",
                    "-",
                ],
                [
                    "over-the-wire",
                    f"{wire_wall:.3f}",
                    f"{REQUESTS / wire_wall:.1f}",
                    f"{stats.mean_batch_size:.2f}",
                ],
            ],
            title=f"gateway HTTP overhead: x{ratio:.2f} wall",
        )
    )

    # Parity survives the socket: full coverage, bit-exact.
    assert verified == REQUESTS
    # Same answers both paths (engines share the artifact's weights), up
    # to the rounding of two different batch compositions.
    np.testing.assert_allclose(
        wire_out,
        inprocess_out,
        rtol=0,
        atol=reassociation_atol(artifact.model(), inprocess_out),
    )
    # Nothing shed, nothing duplicated at this load.
    assert admission["admitted"] == REQUESTS
    assert admission["rejected"] == 0
    assert stats.completed == REQUESTS
    # The recorded overhead floor.
    assert ratio <= MAX_WALL_RATIO, (
        f"HTTP round-trip costs x{ratio:.2f} of in-process serving "
        f"(> x{MAX_WALL_RATIO}); the wire path has regressed"
    )
    # Server-side micro-batching still works across sockets.
    assert stats.forwards < REQUESTS
