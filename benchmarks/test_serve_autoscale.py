"""Autoscaling latency benchmark: the bursty-trace guard.

Serves a uniform-2-bit VGG-small artifact under one seeded bursty
on-off trace twice at equal request count — once on a fixed
single-engine pool, once with queue-depth autoscaling (1..4 engines)
— and asserts the engineering contract of the autoscaler:

* the pool visibly scales up under the burst (>= 1 scale event),
* every request completes and replays **bit-exact** against its
  engine's executed batches (including engines the autoscaler later
  retired),
* lease accounting balances: every scale-up leased a clone, every
  retirement/close released it,
* on hosts with >= 2 CPUs, the autoscaled pool beats the fixed
  single-engine pool on p95 request latency.

The p95 comparison is asserted only where it is physically possible:
parallel engines add no compute on a single-CPU host (they time-slice
one core and lose to the fixed pool's bigger batches), so there the
numbers are printed but not asserted — same policy as the multi-engine
parity benchmark's note on hardware-dependent wall-clock scaling.

The offered load is calibrated inline against the host's measured
single-engine capacity (~1.5x overload at the mean, ~5x during
bursts), so the fixed pool falls behind on any machine, fast or slow.
"""

import os
import time


from benchmarks.conftest import run_once
from repro.analysis.render import ascii_table
from repro.experiments.presets import get_dataset
from repro.serve import (
    ArtifactCache,
    AutoscalePolicy,
    ServeConfig,
    ServingSession,
    TraceConfig,
    cycle_inputs,
    generate_trace,
    replay_trace,
    verify_replay,
)
from repro.serve.replay import build_uniform_artifact

REQUESTS = 512
BATCH_CAP = 16
WINDOW_S = 0.002
OVERLOAD = 1.5  # mean offered rate vs measured single-engine capacity


def _calibrate_capacity(artifact, images) -> float:
    """Measured saturated single-engine throughput (rows/s)."""
    inputs = cycle_inputs(images, 192)
    session = ServingSession(
        artifact,
        config=ServeConfig(
            batch_window_s=WINDOW_S, max_batch_size=BATCH_CAP, autostart=False
        ),
    )
    for x in inputs:
        session.submit(x)
    started = time.perf_counter()
    session.start()
    session.drain()
    wall = time.perf_counter() - started
    session.close()
    return len(inputs) / wall


def _replay(artifact, cache, row_inputs, trace, policy):
    config = ServeConfig(
        batch_window_s=WINDOW_S,
        max_batch_size=BATCH_CAP,
        record_batches=True,
        engines=1,
        autoscale=policy,
    )
    with ServingSession(artifact, config=config, cache=cache) as session:
        run = replay_trace(session, row_inputs, trace, slo_ms=50.0)
        verified = verify_replay(session, row_inputs, run, expected=trace.rows)
    return run.payload, verified


def test_autoscaled_pool_beats_fixed_pool_on_burst_p95(benchmark):
    artifact = build_uniform_artifact(
        model="vgg-small", dataset="synth10", scale="tiny", seed=0, bits=2
    )
    dataset = get_dataset("synth10", scale="tiny", seed=0)

    capacity = _calibrate_capacity(artifact, dataset.test_images)
    trace = generate_trace(
        TraceConfig(
            kind="bursty",
            requests=REQUESTS,
            rate_rps=OVERLOAD * capacity,
            seed=0,
            burst_factor=8.0,
            duty=0.2,
        )
    )
    row_inputs = cycle_inputs(dataset.test_images, trace.rows)
    policy = AutoscalePolicy(
        min_engines=1,
        max_engines=4,
        scale_up_depth=4.0,
        scale_down_depth=1.0,
        cooldown_s=0.02,
        interval_s=0.005,
    )
    cache = ArtifactCache()

    def run_both():
        # Interleave two rounds per mode and keep each mode's best p95:
        # the guard measures the pool design, not scheduler noise.
        fixed_rounds = []
        auto_rounds = []
        for _ in range(2):
            fixed_rounds.append(_replay(artifact, cache, row_inputs, trace, None))
            auto_rounds.append(_replay(artifact, cache, row_inputs, trace, policy))
        best = lambda rounds: min(
            rounds, key=lambda r: r[0]["latency_ms"]["p95"]
        )
        return best(fixed_rounds), best(auto_rounds)

    (fixed, fixed_verified), (auto, auto_verified) = run_once(benchmark, run_both)

    fixed_p95 = fixed["latency_ms"]["p95"]
    auto_p95 = auto["latency_ms"]["p95"]
    print()
    print(
        ascii_table(
            ["mode", "engines peak", "scale ups", "p50 ms", "p95 ms", "SLO att."],
            [
                ["fixed x1", fixed["engines"]["peak"],
                 fixed["autoscale"]["scale_ups"],
                 round(fixed["latency_ms"]["p50"], 2), round(fixed_p95, 2),
                 round(fixed["slo_attainment"], 3)],
                ["autoscale 1..4", auto["engines"]["peak"],
                 auto["autoscale"]["scale_ups"],
                 round(auto["latency_ms"]["p50"], 2), round(auto_p95, 2),
                 round(auto["slo_attainment"], 3)],
            ],
            title=(
                f"bursty trace @ {trace.config.rate_rps:.0f} rps "
                f"({OVERLOAD:g}x single-engine capacity)"
            ),
        )
    )

    # -------- correctness: equal load, every request bit-exact ---------
    assert fixed["requests"] == auto["requests"] == REQUESTS
    assert fixed_verified == auto_verified == trace.rows

    # -------- the autoscaler visibly reacted to the burst --------------
    # Both runs share one pool class; only the policy differs.
    assert not fixed["autoscale"]["enabled"] and fixed["autoscale"]["events"] == []
    assert auto["autoscale"]["enabled"]
    assert auto["autoscale"]["scale_ups"] >= 1
    assert auto["engines"]["peak"] >= 2
    assert any(
        event["action"] == "up" for event in auto["autoscale"]["events"]
    )

    # -------- lease accounting balances over both modes ----------------
    assert cache.active_leases() == 0
    assert cache.stats.leases == cache.stats.releases

    # -------- the p95 guard, where parallelism is possible -------------
    cpus = len(os.sched_getaffinity(0))
    if cpus >= 2:
        assert auto_p95 < fixed_p95, (
            f"autoscaled pool did not beat the fixed single engine on p95 "
            f"({auto_p95:.2f} vs {fixed_p95:.2f} ms on {cpus} CPUs)"
        )
    else:
        print(
            f"single-CPU host: p95 comparison reported, not asserted "
            f"(auto {auto_p95:.2f} vs fixed {fixed_p95:.2f} ms — parallel "
            f"engines cannot add compute on one core)"
        )
