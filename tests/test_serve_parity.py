"""The serving parity contract (tier-1).

Serving answers must be **bit-exact** with the served model's forward
on the batch the engine executed them in, end to end: fake-quant model
→ integer export → CQW1 bitstream on disk → artifact cache →
reconstructed model → micro-batching engine under concurrent load.
This is the serving twin of the evaluator's bit-exact contract
(docs/architecture.md) and must be preserved by any future serving
change.

Against the *original* fake-quantized model the guarantee depends on
the sidecar storage dtype: a ``float64`` sidecar round-trips the model
state losslessly (bitwise parity), while the compact default
``float32`` sidecar rounds the unquantized tail once at pack time —
the served model is then deterministic on every load but agrees with
the original only to float32 precision. Both are pinned here.

Multi-engine serving adds a third leg: every engine leased from one
cached artifact serves a bit-identical clone, so concurrent engines
must agree with the single-engine path bitwise.
"""

import gc
import threading

import numpy as np
import pytest

from repro.quant.export import export_quantized_weights, verify_export
from repro.serve import (
    ArtifactCache,
    ServeConfig,
    ServingSession,
    TraceConfig,
    cycle_inputs,
    generate_trace,
    replay_trace,
    save_artifact,
    verify_replay,
)
from repro.tensor.tensor import Tensor, no_grad


def backlog_replay(session, inputs, concurrency):
    """Closed-loop replay: every row queued at t=0, at most
    ``concurrency`` outstanding, row ``i`` answering ``inputs[i]``."""
    trace = generate_trace(TraceConfig(kind="backlog", requests=len(inputs)))
    return replay_trace(session, inputs, trace, concurrency=concurrency)


@pytest.fixture(
    params=[
        (None, "float64"),
        (2, "float64"),
        (None, "float32"),
        (2, "float32"),
    ],
    ids=["weights-only-f64", "act2-f64", "weights-only-f32", "act2-f32"],
)
def served_setup(request, quantized_mlp_factory, tmp_path):
    """(fake-quant model, session serving its artifact from disk, inputs,
    sidecar dtype)."""
    act_bits, sidecar_dtype = request.param
    model, manifest = quantized_mlp_factory(act_bits=act_bits)
    # The export the artifact carries is strictly verified first: a
    # parity failure below then points at serving, not the export.
    verify_export(model, export_quantized_weights(model), strict=True)
    path = tmp_path / "model.cqw"
    save_artifact(path, model, manifest, sidecar_dtype=sidecar_dtype)
    cache = ArtifactCache()
    session = ServingSession(
        path,
        config=ServeConfig(
            batch_window_s=0.01, max_batch_size=4, record_batches=True
        ),
        cache=cache,
    )
    inputs = np.random.default_rng(42).standard_normal((18, 3, 8, 8))
    yield model, session, inputs, sidecar_dtype
    session.close()


def assert_source_parity(got, expected, sidecar_dtype):
    """Bitwise for lossless sidecars, float32-tight otherwise."""
    if sidecar_dtype == "float64":
        np.testing.assert_array_equal(got, expected)
    else:
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)


class TestServingParity:
    def test_concurrent_replay_is_bit_exact_with_fake_quant_model(self, served_setup):
        fake_quant, session, inputs, sidecar_dtype = served_setup
        run = backlog_replay(session, inputs, concurrency=3)
        session.drain()

        # 1) Engine answers == serving model run directly on the same
        #    executed batches (the engine adds nothing) — bitwise for
        #    every sidecar dtype.
        assert verify_replay(session, inputs, run) == len(inputs)

        # 2) Serving model vs the *original* fake-quantized model,
        #    batch for batch: bitwise when the sidecar stored the model
        #    state losslessly, float32-tight for the compact sidecar.
        index_of = {rid: i for i, rid in enumerate(run.request_ids)}
        verified = 0
        for batch in session.engine.executed_batches():
            rows = [index_of[rid] for rid in batch]
            with no_grad():
                reference = fake_quant(
                    Tensor(np.stack([inputs[row] for row in rows]))
                ).data
            for position, row in enumerate(rows):
                assert_source_parity(
                    run.outputs[row], reference[position], sidecar_dtype
                )
                verified += 1
        assert verified == len(inputs)

    def test_single_request_parity(self, served_setup):
        fake_quant, session, inputs, sidecar_dtype = served_setup
        x = inputs[0]
        got = session.predict(x)
        with no_grad():
            expected = fake_quant(Tensor(x[None])).data[0]
        assert_source_parity(got, expected, sidecar_dtype)

    def test_serving_is_deterministic_across_loads(
        self, quantized_mlp_factory, tmp_path, rng
    ):
        """Whatever the sidecar rounded, two independent loads of the
        same bytes serve identical answers — the parity anchor is the
        artifact, not the original in-memory model."""
        model, manifest = quantized_mlp_factory()
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest, sidecar_dtype="float32")
        x = rng.standard_normal((3, 8, 8))
        answers = []
        for _ in range(2):
            with ServingSession(path, cache=ArtifactCache()) as session:
                answers.append(session.predict(x))
        np.testing.assert_array_equal(answers[0], answers[1])


class TestMultiEngineParity:
    """Two engines leased from one cached artifact, driven from threads,
    must serve bit-exactly what the single-engine path serves."""

    @pytest.fixture
    def artifact_path(self, quantized_mlp_factory, tmp_path):
        model, manifest = quantized_mlp_factory(act_bits=2)
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest)
        return path

    @pytest.fixture
    def artifact_path64(self, quantized_mlp_factory, tmp_path):
        """A float64-sidecar artifact, served in float64."""
        model, manifest = quantized_mlp_factory(act_bits=2)
        path = tmp_path / "model64.cqw"
        save_artifact(path, model, manifest, sidecar_dtype="float64")
        return path

    def test_two_leased_engines_match_single_engine_bitwise(self, artifact_path):
        cache = ArtifactCache()
        inputs = np.random.default_rng(7).standard_normal((24, 3, 8, 8))
        config = ServeConfig(
            batch_window_s=0.01, max_batch_size=4, record_batches=True
        )

        with ServingSession(artifact_path, config=config, cache=cache) as single:
            single_run = backlog_replay(single, inputs, concurrency=3)
            assert verify_replay(single, inputs, single_run) == len(inputs)
            single_model = single.model  # the single-engine path's clone
            served = inputs.astype(single.input_dtype)  # the bytes engines see

        pooled_config = ServeConfig(
            batch_window_s=0.01, max_batch_size=4, record_batches=True, engines=2
        )
        with ServingSession(
            artifact_path, config=pooled_config, cache=cache
        ) as pooled:
            assert len(pooled.engines) == 2
            assert pooled.models[0] is not pooled.models[1]
            run = backlog_replay(pooled, inputs, concurrency=4)
            # Both engines saw traffic (round-robin fan-out).
            assert sorted(set(run.engine_indices)) == [0, 1]
            # Every request is bit-exact with its own engine's model...
            assert verify_replay(pooled, inputs, run) == len(inputs)
            # ...and replaying each engine's executed batches through
            # the *single-engine session's* clone reproduces the pooled
            # answers bitwise: all leased clones are bit-identical.
            engine_rows = 0
            for engine_index, engine in enumerate(pooled.engines):
                index_of = {
                    rid: row
                    for row, (eng, rid) in enumerate(
                        zip(run.engine_indices, run.request_ids)
                    )
                    if eng == engine_index
                }
                for batch in engine.executed_batches():
                    rows = [index_of[rid] for rid in batch]
                    with no_grad():
                        reference = single_model(
                            Tensor(np.stack([served[row] for row in rows]))
                        ).data
                    for position, row in enumerate(rows):
                        np.testing.assert_array_equal(
                            run.outputs[row], reference[position]
                        )
                        engine_rows += 1
            assert engine_rows == len(inputs)
        # One parse+build, three leases (1 + 2), all returned.
        assert cache.stats.misses == 1
        assert cache.stats.leases == 3 and cache.stats.releases == 3
        assert cache.active_leases() == 0

    def test_verify_replay_requires_engine_map_for_pools(self, artifact_path):
        """Engine-local request ids collide across a pool: a hand-built
        ReplayRun without engine_indices must be rejected, not silently
        mis-attributed to engine 0."""
        from repro.serve import ReplayRun

        cache = ArtifactCache()
        inputs = np.random.default_rng(1).standard_normal((6, 3, 8, 8))
        config = ServeConfig(record_batches=True, engines=2)
        with ServingSession(artifact_path, config=config, cache=cache) as session:
            run = backlog_replay(session, inputs, concurrency=2)
            stripped = ReplayRun(
                payload=run.payload,
                outputs=run.outputs,
                request_ids=run.request_ids,
            )
            with pytest.raises(ValueError, match="engine_indices"):
                verify_replay(session, inputs, stripped)
            # With the engine map, the same data verifies fully.
            assert verify_replay(session, inputs, run) == len(inputs)

    def test_threaded_clients_on_pooled_session(self, artifact_path64):
        """Raw threaded predict() calls (not the replay harness) across
        a pooled session agree with a direct forward bitwise."""
        cache = ArtifactCache()
        inputs = np.random.default_rng(3).standard_normal((16, 3, 8, 8))
        config = ServeConfig(batch_window_s=0.005, max_batch_size=4, engines=2)
        results = [None] * len(inputs)
        with ServingSession(artifact_path64, config=config, cache=cache) as session:

            def client(offset):
                for index in range(offset, len(inputs), 4):
                    results[index] = session.predict(inputs[index], timeout=10)

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            reference_model = session.models[0]
            with no_grad():
                expected = reference_model(Tensor(np.asarray(inputs))).data
        for index in range(len(inputs)):
            row = results[index]
            assert row is not None
            # Forward on the executed micro-batch vs forward on the full
            # batch: bit-equality is not guaranteed across batch shapes,
            # so compare tightly instead (the bitwise guarantee is
            # covered by verify_replay above).
            np.testing.assert_allclose(row, expected[index], rtol=1e-9, atol=1e-12)


class TestReplayHarness:
    def test_cycle_inputs_wraps(self):
        images = np.arange(12, dtype=np.float64).reshape(3, 4)
        cycled = cycle_inputs(images, 7)
        assert cycled.shape == (7, 4)
        np.testing.assert_array_equal(cycled[3], images[0])
        with pytest.raises(ValueError):
            cycle_inputs(images[:0], 3)

    def test_replay_payload_figures(self, served_setup):
        _model, session, inputs, _dtype = served_setup
        run = backlog_replay(session, inputs, concurrency=2)
        payload = run.payload
        assert payload["requests"] == len(inputs)
        assert payload["concurrency"] == 2
        assert payload["engines"]["final"] == 1
        assert payload["throughput_rps"] > 0
        assert payload["forwards"] >= 1
        assert payload["mean_batch_size"] >= 1.0
        assert payload["latency_ms"]["p95"] >= payload["latency_ms"]["p50"] >= 0
        assert run.outputs.shape == (len(inputs), 4)
        assert sorted(run.request_ids) == list(range(min(run.request_ids), min(run.request_ids) + len(inputs)))
        assert run.engine_indices == [0] * len(inputs)

    def test_concurrency_cap_bounds_batches_and_times_from_dispatch(
        self, served_setup
    ):
        from repro.serve import render_trace_replay

        _model, session, inputs, _dtype = served_setup
        # A replay long enough (~0.1 s) that one scheduler hiccup in a
        # single request cannot reach half its wall. A full collection
        # first, as timeit runs without one: in a full tier-1 run a
        # gen-2 collection pauses the process for 50-150 ms, and one
        # landing inside the replay read as that request's latency.
        rows = cycle_inputs(inputs, 1024)
        gc.collect()
        run = backlog_replay(session, rows, concurrency=2)
        batches = session.engine.executed_batches()
        assert batches and all(len(batch) <= 2 for batch in batches)
        assert verify_replay(session, rows, run, expected=1024) == 1024
        # Latency runs from dispatch, not from the shared t=0 arrival,
        # so no request waited out half the replay.
        payload = run.payload
        assert payload["latency_ms"]["max"] < 0.5 * payload["wall_s"] * 1e3
        assert "[backlog x2 clients, seed 0]" in render_trace_replay(payload)

    def test_replay_rejects_bad_concurrency(self, served_setup):
        _model, session, inputs, _dtype = served_setup
        with pytest.raises(ValueError, match="concurrency"):
            backlog_replay(session, inputs, concurrency=0)

    def test_replay_rejects_empty_trace(self, served_setup):
        _model, session, inputs, _dtype = served_setup
        with pytest.raises(ValueError, match="at least one request"):
            backlog_replay(session, inputs[:0], concurrency=2)
        trace = generate_trace(TraceConfig(kind="backlog", requests=3))
        with pytest.raises(ValueError, match="no images"):
            replay_trace(session, inputs[:0], trace, concurrency=2)
        with pytest.raises(ValueError, match="at least one request"):
            cycle_inputs(inputs, 0)

    def test_float32_inputs_still_verify_bit_exact(self, served_setup):
        # The parity check must compare against the same bytes the
        # engine saw (inputs coerced to the model's dtype), not the raw
        # input dtype.
        _model, session, inputs, _dtype = served_setup
        low_precision = inputs.astype(np.float32)
        run = backlog_replay(session, low_precision, concurrency=2)
        assert verify_replay(session, low_precision, run) == len(inputs)

    def test_verify_replay_detects_corruption(self, served_setup):
        _model, session, inputs, _dtype = served_setup
        run = backlog_replay(session, inputs, concurrency=2)
        run.outputs[0, 0] += 1.0
        with pytest.raises(AssertionError, match="bit-exact"):
            verify_replay(session, inputs, run)

    def test_trace_replay_on_fixed_pool_renders(self, served_setup):
        """Regression: a fixed (non-autoscaled) session's trace payload
        carries the pool's scaling report with ``enabled: False`` and
        must still render."""
        from repro.serve import TraceConfig, generate_trace, render_trace_replay, replay_trace

        _model, session, inputs, _dtype = served_setup
        trace = generate_trace(
            TraceConfig(kind="uniform", requests=6, rate_rps=500.0)
        )
        run = replay_trace(session, inputs, trace, slo_ms=1000.0)
        scaling = run.payload["autoscale"]
        assert scaling["enabled"] is False
        engines = len(session.engines)
        assert scaling["policy"]["min_engines"] == scaling["policy"]["max_engines"] == engines
        assert scaling["events"] == [] and scaling["engine_deaths"] == 0
        rendered = render_trace_replay(run.payload)
        assert "p95 vs SLO" in rendered
        assert "autoscale[" not in rendered

    def test_verify_replay_flags_partial_coverage(
        self, quantized_mlp_factory, tmp_path
    ):
        """Regression: batches carrying non-replay traffic are skipped,
        so the verified count silently falls short of the request count.
        ``expected`` turns that shortfall into a failure."""
        from repro.serve import ReplayRun

        model, manifest = quantized_mlp_factory()
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest)
        inputs = np.random.default_rng(11).standard_normal((3, 3, 8, 8))
        config = ServeConfig(
            batch_window_s=0.01,
            max_batch_size=8,
            record_batches=True,
            autostart=False,
        )
        with ServingSession(path, cache=ArtifactCache(), config=config) as session:
            # A warmup request the replay run knows nothing about,
            # queued while the engine is stopped so it deterministically
            # coalesces into the same executed batch as the replay rows.
            warmup = session.submit(inputs[0])
            pendings = [session.submit(x) for x in inputs]
            session.start()
            outputs = np.stack([p.result(timeout=10) for p in pendings])
            warmup.result(timeout=10)
            run = ReplayRun(
                payload={},
                outputs=outputs,
                request_ids=[p.request_id for p in pendings],
                engine_indices=[p.engine_index for p in pendings],
            )
            # Unstrict: the contaminated batch is skipped, nothing at
            # all got verified — and nothing complained.
            assert verify_replay(session, inputs, run) < len(inputs)
            with pytest.raises(AssertionError, match="partial coverage"):
                verify_replay(session, inputs, run, expected=len(inputs))


class TestIntegerBackendParity:
    """The integer backend through the pooled serving paths: every
    leased integer compilation is bit-identical across engines, and the
    replay verifier's rescale-bound leg holds under concurrent load."""

    @pytest.fixture
    def artifact_path(self, quantized_mlp_factory, tmp_path):
        model, manifest = quantized_mlp_factory(act_bits=2)
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest)
        return path

    def test_pooled_integer_engines_bit_identical(self, artifact_path):
        from repro.serve import ServingPlan

        cache = ArtifactCache()
        inputs = np.random.default_rng(17).standard_normal((24, 3, 8, 8))
        config = ServeConfig(
            batch_window_s=0.01,
            max_batch_size=4,
            record_batches=True,
            engines=2,
            backend="integer",
        )
        with ServingSession(artifact_path, config=config, cache=cache) as pooled:
            assert all(
                isinstance(model, ServingPlan) and model.serving_backend == "integer"
                for model in pooled.models
            )
            assert pooled.models[0] is not pooled.models[1]
            run = backlog_replay(pooled, inputs, concurrency=4)
            assert sorted(set(run.engine_indices)) == [0, 1]
            # Bitwise self-parity per engine + the rescale bound vs a
            # float64 build of the float model, both inside verify_replay.
            assert verify_replay(
                pooled, inputs, run, expected=len(inputs)
            ) == len(inputs)
            # Leased integer compilations are bit-identical: replay each
            # engine's executed batches through the *other* engine's
            # clone and demand bitwise agreement.
            index_of_all = {rid: [] for rid in run.request_ids}
            for engine_index, engine in enumerate(pooled.engines):
                index_of = {
                    rid: row
                    for row, (eng, rid) in enumerate(
                        zip(run.engine_indices, run.request_ids)
                    )
                    if eng == engine_index
                }
                other = pooled.models[1 - engine_index]
                for batch in engine.executed_batches():
                    rows = [index_of[rid] for rid in batch]
                    with no_grad():
                        mirrored = other(
                            Tensor(np.stack([inputs[row] for row in rows]))
                        ).data
                    for position, row in enumerate(rows):
                        np.testing.assert_array_equal(
                            run.outputs[row], mirrored[position]
                        )
        # The float prototype + 2 integer leases all came from one
        # cache entry.
        assert cache.stats.misses == 1
        assert cache.active_leases() == 0

    def test_integer_session_answers_match_float_session_within_bound(
        self, artifact_path
    ):
        from repro.serve import integer_parity_rtol, load_artifact
        from repro.serve.artifact import build_serving_model

        cache = ArtifactCache()
        inputs = np.random.default_rng(23).standard_normal((12, 3, 8, 8))
        # The bound is derived against the float model in float64, not
        # the float32 the default sidecar's float backend serves in.
        reference = build_serving_model(load_artifact(artifact_path), dtype=np.float64)
        with no_grad():
            expected = reference(Tensor(inputs)).data
        with ServingSession(
            artifact_path,
            cache=cache,
            config=ServeConfig(backend="integer", engines=2),
        ) as session:
            got = session.predict_batch(inputs)
        rtol = integer_parity_rtol(load_artifact(artifact_path).export)
        tolerance = rtol * max(1.0, float(np.max(np.abs(expected))))
        assert float(np.max(np.abs(got - expected))) <= tolerance
