"""Integer-backend serving throughput: the deployment-path guard.

Serves the uniform-2-bit VGG-small artifact (the same preset the
micro-batching guard pins) over a 128-request trace twice — once with
the float engine (reconstructed weights) and once with the integer
backend executing the packed codes directly — and asserts:

* the integer backend's micro-batched throughput stays within a
  guarded floor of the float engine's (**>= 0.5x**). The weight-only
  integer path lowers to the same im2col + GEMM shape as the float
  path (the codes are cast to float64 once at compile time, exactly),
  but the float engine serves this float32-sidecar artifact in float32
  while the integer backend stays float64, so the float engine's GEMMs
  move half the bytes and the ratio sits below 1x; the floor only needs
  to catch a path that falls off the GEMM lowering into something
  per-element,
* every integer answer is bit-exact with its engine's own forward AND
  within the derived rescale bound of a float64 build of the float
  model (``verify_replay``'s two legs for integer engines).
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.render import ascii_table
from repro.experiments.presets import get_dataset
from repro.serve import (
    ReplayRun,
    ServeConfig,
    ServingSession,
    cycle_inputs,
    verify_replay,
)
from repro.serve.replay import build_uniform_artifact

REQUESTS = 128  # 4 full batches per mode
BATCH_CAP = 32
THROUGHPUT_FLOOR = 0.5  # integer rps >= 0.5x float rps


def _timed_drain(artifact, inputs, backend):
    """Queue the whole trace, then time start-to-drain serving only."""
    session = ServingSession(
        artifact,
        config=ServeConfig(
            batch_window_s=0.05,
            max_batch_size=BATCH_CAP,
            record_batches=True,
            autostart=False,
            backend=backend,
        ),
    )
    pendings = [session.submit(x) for x in inputs]
    started = time.perf_counter()
    session.start()
    session.drain()
    wall = time.perf_counter() - started
    outputs = np.stack([pending.result() for pending in pendings])
    run = ReplayRun(
        payload={}, outputs=outputs,
        request_ids=[pending.request_id for pending in pendings],
        engine_indices=[pending.engine_index for pending in pendings],
    )
    verified = verify_replay(session, inputs, run, expected=REQUESTS)
    stats = session.stats
    session.close()
    return wall, stats, verified


def test_integer_backend_throughput_vs_float(benchmark):
    artifact = build_uniform_artifact(
        model="vgg-small", dataset="synth10", scale="tiny", seed=0, bits=2
    )
    dataset = get_dataset("synth10", scale="tiny", seed=0)
    inputs = cycle_inputs(dataset.test_images, REQUESTS)

    def run_both():
        # Interleave three rounds per backend and keep each backend's
        # best wall time: the guard measures the execution path, not
        # scheduler noise on a shared CI runner.
        float_rounds = []
        integer_rounds = []
        for _ in range(3):
            float_rounds.append(_timed_drain(artifact, inputs, "float"))
            integer_rounds.append(_timed_drain(artifact, inputs, "integer"))
        return (
            min(float_rounds, key=lambda round_: round_[0]),
            min(integer_rounds, key=lambda round_: round_[0]),
        )

    (float_wall, float_stats, float_verified), (
        integer_wall,
        integer_stats,
        integer_verified,
    ) = run_once(benchmark, run_both)

    float_rps = REQUESTS / float_wall
    integer_rps = REQUESTS / integer_wall
    ratio = integer_rps / float_rps
    print()
    print(
        ascii_table(
            ["backend", "forwards", "mean batch", "wall s", "req/s"],
            [
                ["float", float_stats.forwards,
                 round(float_stats.mean_batch_size, 2),
                 round(float_wall, 3), round(float_rps, 1)],
                ["integer", integer_stats.forwards,
                 round(integer_stats.mean_batch_size, 2),
                 round(integer_wall, 3), round(integer_rps, 1)],
            ],
            title=(
                f"VGG-small serving: integer vs float backend "
                f"(x{ratio:.2f} relative throughput)"
            ),
        )
    )
    print(integer_stats.summary())

    # -------- correctness: both verify_replay legs, both backends ------
    assert float_verified == REQUESTS
    assert integer_verified == REQUESTS
    assert integer_stats.backend == "integer"
    # The benchmark artifact is weight-only: activations stay float, so
    # no int x int accumulator profile exists (0 by contract).
    assert integer_stats.acc_bits_used == 0

    # -------- batching mechanics match across backends -----------------
    assert float_stats.forwards == REQUESTS // BATCH_CAP
    assert integer_stats.forwards == REQUESTS // BATCH_CAP
    assert integer_stats.max_batch_seen == BATCH_CAP

    # -------- the throughput floor -------------------------------------
    assert ratio >= THROUGHPUT_FLOOR, (
        f"integer backend reached only x{ratio:.2f} of float throughput "
        f"({integer_rps:.1f} vs {float_rps:.1f} req/s); the packed-code "
        f"execution fell off the GEMM lowering"
    )
