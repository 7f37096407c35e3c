"""Serving throughput benchmark: the micro-batching guard.

Serves a uniform-2-bit VGG-small artifact (the paper's Figure-3 model)
twice over the same 192-request trace — once with dynamic
micro-batching (``max_batch_size=32``) and once strictly one request
at a time (``max_batch_size=1``) — and asserts the engineering
contract of ``repro.serve``:

* micro-batched serving reaches **>= 3x** the sequential throughput:
  a batch-32 forward costs far less than 32 batch-1 forwards on the
  numpy stack — one broadcast GEMM per layer instead of 32, see the
  conv2d matmul note in repro.tensor.functional. Six runs on a 2-vCPU
  host measured x2.0-3.2, so the guard can fail there; the copy-free
  conv lowering sped batch-1 forwards up more than batch-32 ones,
* batch composition is exactly ``192 = 6 x 32`` under saturation,
* every answer is bit-exact with the model's forward on its executed
  batch (the serving parity contract).

Like the ResNet segment guard, the preset is pinned to ``tiny`` so
other scales cannot flip the ratio for reasons unrelated to serving.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.analysis.render import ascii_table
from repro.experiments.presets import get_dataset
from repro.serve import ReplayRun, ServeConfig, ServingSession, cycle_inputs, verify_replay
from repro.serve.replay import build_uniform_artifact

REQUESTS = 192  # 6 full batches — long enough to ride out scheduler jitter
BATCH_CAP = 32


def _timed_drain(artifact, inputs, max_batch_size):
    """Queue the whole trace, then time start-to-drain serving only."""
    session = ServingSession(
        artifact,
        config=ServeConfig(
            batch_window_s=0.05 if max_batch_size > 1 else 0.0,
            max_batch_size=max_batch_size,
            record_batches=True,
            autostart=False,
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
    verified = verify_replay(session, inputs, run)
    stats = session.stats
    session.close()
    return wall, stats, verified


def test_serve_micro_batching_throughput(benchmark):
    artifact = build_uniform_artifact(
        model="vgg-small", dataset="synth10", scale="tiny", seed=0, bits=2
    )
    dataset = get_dataset("synth10", scale="tiny", seed=0)
    inputs = cycle_inputs(dataset.test_images, REQUESTS)

    def run_both():
        # Interleave three rounds per mode and keep each mode's best
        # wall time: the guard measures the serving design, not
        # scheduler noise on a shared CI runner.
        batched_rounds = []
        sequential_rounds = []
        for _ in range(3):
            batched_rounds.append(_timed_drain(artifact, inputs, BATCH_CAP))
            sequential_rounds.append(_timed_drain(artifact, inputs, 1))
        return (
            min(batched_rounds, key=lambda round_: round_[0]),
            min(sequential_rounds, key=lambda round_: round_[0]),
        )

    (batched_wall, batched_stats, batched_verified), (
        sequential_wall,
        sequential_stats,
        sequential_verified,
    ) = run_once(benchmark, run_both)

    batched_rps = REQUESTS / batched_wall
    sequential_rps = REQUESTS / sequential_wall
    speedup = batched_rps / sequential_rps
    print()
    print(
        ascii_table(
            ["mode", "forwards", "mean batch", "wall s", "req/s"],
            [
                ["sequential", sequential_stats.forwards,
                 round(sequential_stats.mean_batch_size, 2),
                 round(sequential_wall, 3), round(sequential_rps, 1)],
                ["micro-batched", batched_stats.forwards,
                 round(batched_stats.mean_batch_size, 2),
                 round(batched_wall, 3), round(batched_rps, 1)],
            ],
            title=f"VGG-small serving throughput (x{speedup:.2f} from micro-batching)",
        )
    )
    print(batched_stats.summary())

    # -------- correctness: both modes are bit-exact, per batch ---------
    assert batched_verified == REQUESTS
    assert sequential_verified == REQUESTS

    # -------- batching mechanics under saturation ----------------------
    assert sequential_stats.forwards == REQUESTS
    assert batched_stats.forwards == REQUESTS // BATCH_CAP  # 6 full batches
    assert batched_stats.max_batch_seen == BATCH_CAP
    assert batched_stats.mean_batch_size == BATCH_CAP

    # -------- the throughput guard: >= 3x ------------------------------
    assert speedup >= 3.0, (
        f"micro-batched serving only reached x{speedup:.2f} of sequential "
        f"throughput ({batched_rps:.1f} vs {sequential_rps:.1f} req/s)"
    )


def test_multi_engine_pool_parity_at_scale(benchmark):
    """Copy-on-lease at the benchmark scale: a 2-engine pool over the
    VGG artifact serves the full 192-request trace with every answer
    bit-exact against its engine's own clone, traffic on both engines,
    and balanced round-robin fan-out. (Correctness guard — wall-clock
    scaling across engines is hardware-dependent and not asserted.)
    """
    from repro.serve import ArtifactCache

    artifact = build_uniform_artifact(
        model="vgg-small", dataset="synth10", scale="tiny", seed=0, bits=2
    )
    dataset = get_dataset("synth10", scale="tiny", seed=0)
    inputs = cycle_inputs(dataset.test_images, REQUESTS)
    cache = ArtifactCache()

    def run_pooled():
        session = ServingSession(
            artifact,
            config=ServeConfig(
                batch_window_s=0.05,
                max_batch_size=BATCH_CAP,
                record_batches=True,
                autostart=False,
                engines=2,
            ),
            cache=cache,
        )
        pendings = [session.submit(x) for x in inputs]
        session.start()
        session.drain()
        outputs = np.stack([pending.result() for pending in pendings])
        run = ReplayRun(
            payload={}, outputs=outputs,
            request_ids=[pending.request_id for pending in pendings],
            engine_indices=[pending.engine_index for pending in pendings],
        )
        verified = verify_replay(session, inputs, run)
        per_engine = session.per_engine_stats()
        session.close()
        return verified, per_engine

    verified, per_engine = run_once(benchmark, run_pooled)
    assert verified == REQUESTS
    assert [stats.requests for stats in per_engine] == [REQUESTS // 2] * 2
    assert all(stats.completed == REQUESTS // 2 for stats in per_engine)
    # One prototype build; both engines got private leased clones.
    assert cache.stats.misses == 1 and cache.stats.leases == 2
    assert cache.active_leases() == 0
