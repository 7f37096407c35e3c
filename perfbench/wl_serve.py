"""Workload ``serve-offline``: bulk rows queued at once and drained.

Each round builds the uniform-2-bit VGG-small artifact from the
committed checkpoint, then serves the same 4000 synth10 rows (the 100
test images, each 40 times, in an order drawn from ``--seed``) in three
phases: float backend on one thread engine, integer backend on one
thread engine, float backend on a two-worker process pool. Every phase
queues all rows at once at ``max_batch_size=32``, so batches are full
and the batching window never waits: the forward kernels and the
process-pool framing decide the result.

Two behaviours of the serving code shape the timing:

* a process pool built with ``autostart=False`` does not hold its
  workers back (they serve as rows arrive), so timing from ``start()``
  would read far too fast. Every phase is therefore timed from its
  first ``submit`` to the end of ``drain``, with engines already
  running;
* each phase parses the artifact into a fresh ``ArtifactCache``, so
  parse and reconstruction are part of set-up, not skipped as cache hits.

Unit of work: one row. A row's latency runs from its phase's first
submit to the row's answer, which is what a bulk caller waits.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from common import PRESET, info, median, percentile, quartile_line, span_metrics

ROWS_PER_IMAGE = 40
BATCH = 32
WORKERS = 2
MIN_ROUNDS = 2
PHASES = (
    ("float", {"backend": "float"}),
    ("integer", {"backend": "integer"}),
    ("process", {"backend": "float", "pool": "process", "workers": WORKERS}),
)


def make_rows(seed: int):
    from repro.experiments.presets import get_dataset

    data = get_dataset(PRESET["dataset"], scale=PRESET["scale"], seed=PRESET["seed"])
    rng = np.random.default_rng(seed)
    count = len(data.test_images)
    order = np.concatenate([rng.permutation(count) for _ in range(ROWS_PER_IMAGE)])
    return data.test_images[order], data.test_labels[order], data.test_images


def build_artifact():
    from repro.experiments.presets import clear_caches
    from repro.serve.replay import build_uniform_artifact

    clear_caches()  # load the checkpoint from disk, as a fresh process would
    return build_uniform_artifact(bits=2, **PRESET)


def _phase(name, options, data: bytes, rows: np.ndarray, labels: np.ndarray):
    from repro.serve import ArtifactCache, ReplayRun, ServeConfig, ServingSession, verify_replay

    timings: Dict[str, float] = {}
    started = time.perf_counter()
    cache = ArtifactCache()
    artifact = cache.load_bytes(data)
    timings["load_s"] = time.perf_counter() - started
    if options["backend"] == "integer":
        begin = time.perf_counter()
        artifact.integer_model()
        timings["compile_s"] = time.perf_counter() - begin
    begin = time.perf_counter()
    session = ServingSession(
        artifact,
        config=ServeConfig(
            batch_window_s=0.002, max_batch_size=BATCH, record_batches=True, **options
        ),
        cache=cache,
    )
    timings["session_s"] = time.perf_counter() - begin
    try:
        session.warmup()
        timings["setup_s"] = time.perf_counter() - started
        inputs = np.ascontiguousarray(rows, dtype=session.input_dtype)

        submitted = np.empty(len(inputs))
        pendings = []
        begin = time.perf_counter()
        for index, row in enumerate(inputs):
            submitted[index] = time.perf_counter() - begin
            pendings.append(session.submit(row))
        session.drain()
        wall = time.perf_counter() - begin
        outputs = np.stack([pending.result() for pending in pendings])
        latencies_ms = 1e3 * (submitted + np.array([p.latency_s for p in pendings]))
        run = ReplayRun(
            payload={},
            outputs=outputs,
            request_ids=[p.request_id for p in pendings],
            engine_indices=[p.engine_index for p in pendings],
        )
        try:
            verified = verify_replay(session, inputs, run, expected=len(inputs))
        except AssertionError as error:
            print(f"# {name} phase parity FAILED: {error}", flush=True)
            verified = 0
        stats = session.stats
    finally:
        session.close()
    return {
        "name": name,
        "rows": len(inputs),
        "verified": verified,
        "wall_s": wall,
        "latencies_ms": latencies_ms.tolist(),
        "correct": int((outputs.argmax(axis=1) == labels).sum()),
        "forwards": stats.forwards,
        "served": stats.completed,
        "forward_s": stats.total_forward_s,
        "timings": timings,
    }


def _round(seed_rows):
    rows, labels, _ = seed_rows
    started = time.perf_counter()
    artifact = build_artifact()
    build_s = time.perf_counter() - started
    phases = [_phase(name, options, artifact.data, rows, labels) for name, options in PHASES]
    return {
        "build_s": build_s,
        "setup_s": build_s + sum(phase["timings"]["setup_s"] for phase in phases),
        "phases": phases,
    }


def _rounds(seed_rows, budget_s: float) -> List[dict]:
    rounds = []
    started = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - started < budget_s:
        rounds.append(_round(seed_rows))
    return rounds


def _throughput(round_) -> float:
    phases = round_["phases"]
    return sum(p["rows"] for p in phases) / sum(p["wall_s"] for p in phases)


def run(seed: int, seconds: float, tracer=None) -> Dict[str, object]:
    seed_rows = make_rows(seed)
    if tracer is None:
        rounds = _rounds(seed_rows, seconds)
        traced = []
    else:
        import repro.serve
        from tracer import wrap_kernels

        rounds = _rounds(seed_rows, seconds / 2)
        wrap_kernels(tracer)
        # _phase imports verify_replay per call, so this binding is the one used.
        tracer.wrap(repro.serve, "verify_replay", "serve.replay.verify")
        try:
            traced = _rounds(seed_rows, seconds / 2)
        finally:
            tracer.restore()

    every = rounds + traced
    phases = [phase for round_ in every for phase in round_["phases"]]
    attempted = sum(phase["rows"] for phase in phases)
    failed = sum(phase["rows"] - phase["verified"] for phase in phases)
    # Percentiles per round (12000 rows each), then the median over rounds.
    round_latencies = [[v for p in r["phases"] for v in p["latencies_ms"]] for r in rounds]
    p50 = median([median(values) for values in round_latencies])
    p99 = median([percentile(values, 99) for values in round_latencies])
    per_phase = {
        name: [r["phases"][i]["rows"] / r["phases"][i]["wall_s"] for r in rounds]
        for i, (name, _) in enumerate(PHASES)
    }
    info("serve-offline", {
        "rounds": len(rounds),
        "rows_per_s": quartile_line([_throughput(r) for r in rounds]),
        **{f"{name}_rows_per_s": quartile_line(values) for name, values in per_phase.items()},
        "setup_s": quartile_line([r["setup_s"] for r in rounds]),
        "latency_samples_per_round": len(round_latencies[0]),
        "p99_samples_beyond_per_round": len(round_latencies[0]) // 100,
    })
    metrics = {
        "setup_s": median([r["setup_s"] for r in every]),
        "success_rate": (attempted - failed) / attempted,
        "throughput_per_s": median([_throughput(r) for r in rounds]),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "accuracy": sum(phase["correct"] for phase in phases) / attempted,
    }
    layer: Dict[str, float] = {}
    if tracer is not None:
        thread = [p for r in rounds for p in r["phases"] if p["name"] != "process"]
        process = [p for r in rounds for p in r["phases"] if p["name"] == "process"]
        layer.update({
            f"serve.offline.{name}_rows_per_s": median(values)
            for name, values in per_phase.items()
        })
        layer.update({
            "serve.engine.forwards": sum(p["forwards"] for p in thread) / len(thread),
            "serve.engine.mean_batch": sum(p["served"] for p in thread)
            / sum(p["forwards"] for p in thread),
            "serve.engine.overhead_s": median([p["wall_s"] - p["forward_s"] for p in thread]),
            "serve.procpool.forwards": sum(p["forwards"] for p in process) / len(process),
            "serve.procpool.mean_batch": sum(p["served"] for p in process)
            / sum(p["forwards"] for p in process),
            "serve.artifact.build_s": median([r["build_s"] for r in rounds]),
            "serve.artifact.load_s": median(
                [p["timings"]["load_s"] for r in rounds for p in r["phases"]]
            ),
            "serve.integer.compile_s": median(
                [p["timings"]["compile_s"] for r in rounds for p in r["phases"] if "compile_s" in p["timings"]]
            ),
            "serve.procpool.spawn_s": median([p["timings"]["session_s"] for p in process]),
            "trace.overhead_pct": 100.0 * (
                median([_throughput(r) for r in rounds]) / median([_throughput(r) for r in traced]) - 1.0
            ),
        })
        # Kernel spans cover serving in the in-process phases, per round; the
        # parity re-runs are left out and process workers are not traced.
        layer.update(span_metrics(tracer.summary(exclude=("serve.replay.verify",)), len(traced)))
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "layer": layer}
