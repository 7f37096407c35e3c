"""Tests for repro.serve.session: the synchronous serving facade."""

import time

import numpy as np
import pytest

from repro.serve import (
    ArtifactCache,
    AutoscalePolicy,
    EngineClosed,
    QueueFull,
    ServeConfig,
    ServingSession,
    compile_artifact,
    resolve_policy,
    save_artifact,
)
from repro.tensor.tensor import Tensor, no_grad


@pytest.fixture
def artifact(quantized_mlp_factory):
    model, manifest = quantized_mlp_factory()
    return compile_artifact(model, manifest)


@pytest.fixture
def artifact64(quantized_mlp_factory):
    """A float64-sidecar artifact: it serves in float64, so answers from
    different batch shapes agree to float64 precision."""
    model, manifest = quantized_mlp_factory()
    return compile_artifact(model, manifest, sidecar_dtype="float64")


class TestConstruction:
    def test_from_artifact(self, artifact):
        """An in-memory artifact is served through a private cache: the
        engine's model is a leased clone, bit-identical to the
        prototype, and the lease is returned on close."""
        with ServingSession(artifact) as session:
            assert session.artifact is artifact
            prototype = artifact.served_model("float")
            assert session.model is not prototype
            batch = np.random.default_rng(0).standard_normal((4, 3, 8, 8))
            with no_grad():
                served = session.model(Tensor(batch.astype(np.float32))).data
                expected = prototype(Tensor(batch.astype(np.float32))).data
            assert served.dtype == expected.dtype == np.float32
            assert served.tobytes() == expected.tobytes()
            cache = session.cache
            assert cache is not None and cache.active_leases() == 1
        assert cache.active_leases() == 0
        assert cache.stats.leases == cache.stats.releases == 1

    def test_from_path_leases_private_clones(self, quantized_mlp_factory, tmp_path):
        """Path-sourced sessions share the cached artifact (one parse,
        one build) but each engine serves a private clone — two
        sessions over one cached artifact can run concurrently."""
        model, manifest = quantized_mlp_factory()
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest)
        cache = ArtifactCache()
        with ServingSession(path, cache=cache) as first:
            with ServingSession(str(path), cache=cache) as second:
                assert second.artifact is first.artifact
                assert second.model is not first.model
                batch = np.random.default_rng(0).standard_normal((4, 3, 8, 8))
                with no_grad():
                    np.testing.assert_array_equal(
                        first.model(Tensor(batch)).data,
                        second.model(Tensor(batch)).data,
                    )
                assert cache.active_leases() == 2
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.active_leases() == 0  # released on close

    def test_from_bare_model(self, quantized_mlp_factory):
        model, _manifest = quantized_mlp_factory()
        with ServingSession(model) as session:
            assert session.artifact is None
            with pytest.raises(ValueError, match="example input"):
                session.warmup()

    def test_failed_construction_releases_leases(
        self, quantized_mlp_factory, tmp_path, monkeypatch
    ):
        """A session that leases clones but fails before standing up its
        pool must return the claims — otherwise the cache entry stays
        pinned for the process lifetime."""
        model, manifest = quantized_mlp_factory()
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest)
        import repro.serve.pool as pool_module

        real_engine = pool_module.InferenceEngine
        built = []

        def second_engine_fails(model, **kwargs):
            built.append(model)
            if len(built) == 2:
                raise ValueError("second engine construction failed")
            return real_engine(model, **kwargs)

        monkeypatch.setattr(pool_module, "InferenceEngine", second_engine_fails)
        cache = ArtifactCache()
        with pytest.raises(ValueError, match="second engine"):
            ServingSession(path, config=ServeConfig(engines=2), cache=cache)
        assert cache.stats.leases == 2
        assert cache.active_leases() == 0

    def test_multi_engine_path_source_reads_file_once(
        self, quantized_mlp_factory, tmp_path, monkeypatch
    ):
        model, manifest = quantized_mlp_factory()
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest)
        from pathlib import Path as _Path

        reads = []
        real_read_bytes = _Path.read_bytes

        def counting_read_bytes(self):
            reads.append(str(self))
            return real_read_bytes(self)

        monkeypatch.setattr(_Path, "read_bytes", counting_read_bytes)
        cache = ArtifactCache()
        with ServingSession(
            path, config=ServeConfig(engines=3), cache=cache
        ) as session:
            assert len(session.engines) == 3
        assert reads.count(str(path)) == 1  # further engines adopt, no I/O

    def test_bare_model_cannot_fan_out(self, quantized_mlp_factory):
        model, _manifest = quantized_mlp_factory()
        with pytest.raises(ValueError, match="fan out"):
            ServingSession(model, config=ServeConfig(engines=2))

    def test_engines_validated(self, artifact):
        with pytest.raises(ValueError, match="engines"):
            ServingSession(artifact, config=ServeConfig(engines=0))

    def test_bad_source_rejected(self):
        with pytest.raises(TypeError, match="source"):
            ServingSession(42)


#: The autoscale leg of the resolution table. Its 60 s interval keeps
#: the supervisor inert, so the served count is the policy's floor.
TABLE_POLICY = AutoscalePolicy(min_engines=3, max_engines=4, interval_s=60.0)

#: (engines, workers, pool, autoscale) -> live engines served, or
#: ValueError. ``engines`` sizes a thread pool and ``workers`` a
#: process pool; the other must stay at its default (1 and 2). With a
#: policy the count comes from ``min_engines``, and a count field set
#: away from its default must agree with it.
RESOLUTION_TABLE = [
    (1, 2, "thread", None, 1),
    (3, 2, "thread", None, 3),
    (1, 3, "thread", None, ValueError),
    (3, 3, "thread", None, ValueError),
    (1, 2, "thread", TABLE_POLICY, 3),
    (3, 2, "thread", TABLE_POLICY, 3),
    (1, 3, "thread", TABLE_POLICY, ValueError),
    (3, 3, "thread", TABLE_POLICY, ValueError),
    (1, 2, "process", None, 2),
    (1, 3, "process", None, 3),
    (3, 2, "process", None, ValueError),
    (3, 3, "process", None, ValueError),
    (1, 2, "process", TABLE_POLICY, 3),
    (1, 3, "process", TABLE_POLICY, 3),
    (3, 2, "process", TABLE_POLICY, ValueError),
    (3, 3, "process", TABLE_POLICY, ValueError),
]


class TestConfigResolution:
    @pytest.mark.parametrize(
        "engines,workers,pool,autoscale,expected", RESOLUTION_TABLE
    )
    def test_resolution_table(
        self, artifact, engines, workers, pool, autoscale, expected
    ):
        config = ServeConfig(
            engines=engines,
            workers=workers,
            pool=pool,
            autoscale=autoscale,
            batch_window_s=0.0,
        )
        if expected is ValueError:
            with pytest.raises(ValueError):
                resolve_policy(config)
            cache = ArtifactCache()
            with pytest.raises(ValueError):
                ServingSession(artifact, config=config, cache=cache)
            assert cache.stats.leases == 0
            return
        policy = autoscale or AutoscalePolicy(
            min_engines=expected, max_engines=expected
        )
        assert resolve_policy(config) == policy
        with ServingSession(artifact, config=config) as session:
            assert len(session.engines) == expected
            scaling = session.pool.describe_scaling()
            assert scaling["placement"] == pool
            assert scaling["engines"] == expected
            assert scaling["enabled"] == (autoscale is not None)
            assert scaling["policy"] == policy.to_dict()
            # Every engine answers: round-robin reaches each one.
            xs = np.zeros((expected, 3, 8, 8))
            served = {session.submit(x).engine_index for x in xs}
            session.drain(timeout=30)
            assert served == set(range(expected))

    def test_count_disagreeing_with_policy_floor_raises(self, artifact):
        policy = AutoscalePolicy(min_engines=2, max_engines=4)
        with pytest.raises(ValueError, match="min_engines=2"):
            resolve_policy(ServeConfig(engines=3, autoscale=policy))
        with pytest.raises(ValueError, match="min_engines=2"):
            resolve_policy(ServeConfig(pool="process", workers=3, autoscale=policy))

    def test_bare_model_rules(self, quantized_mlp_factory):
        model, _manifest = quantized_mlp_factory()
        with pytest.raises(ValueError, match="fan out"):
            ServingSession(
                model, config=ServeConfig(autoscale=AutoscalePolicy(max_engines=2))
            )
        with pytest.raises(ValueError, match="integer backend"):
            ServingSession(model, config=ServeConfig(backend="integer"))
        with ServingSession(model) as session:
            assert session.model is model  # served as given, never cloned
            assert not session.pool.supports_chaos


class TestMultiEngineSession:
    def test_artifact_source_clones_per_engine(self, artifact):
        with ServingSession(artifact, config=ServeConfig(engines=2)) as session:
            assert len(session.engines) == 2
            assert len(session.models) == 2
            assert session.models[0] is not session.models[1]
            # The prototype stays pristine (it is the clone source).
            assert artifact.served_model("float") not in session.models
            with pytest.raises(RuntimeError, match="use .engines"):
                session.engine

    def test_requests_fan_out_round_robin(self, artifact, rng):
        xs = rng.standard_normal((8, 3, 8, 8))
        config = ServeConfig(batch_window_s=0.0, engines=2)
        with ServingSession(artifact, config=config) as session:
            pendings = [session.submit(x) for x in xs]
            for pending in pendings:
                pending.result(timeout=10)
            assert [p.engine_index for p in pendings] == [0, 1] * 4
            per_engine = session.per_engine_stats()
            assert [stats.requests for stats in per_engine] == [4, 4]
            combined = session.stats
            assert combined.requests == 8
            assert combined.completed == 8

    def test_predict_batch_row_order_preserved_across_engines(self, artifact64, rng):
        xs = rng.standard_normal((9, 3, 8, 8))
        config = ServeConfig(batch_window_s=0.01, max_batch_size=4, engines=2)
        with ServingSession(artifact64, config=config) as session:
            got = session.predict_batch(xs)
        sequential_config = ServeConfig(batch_window_s=0.0, max_batch_size=1)
        with ServingSession(artifact64, config=sequential_config) as session:
            sequential = session.predict_batch(xs)
        np.testing.assert_allclose(got, sequential, rtol=1e-9, atol=1e-12)

    def test_warmup_primes_every_engine(self, artifact):
        with ServingSession(artifact, config=ServeConfig(engines=2)) as session:
            session.warmup(count=2)
            assert [stats.completed for stats in session.per_engine_stats()] == [2, 2]


class TestPredict:
    def test_predict_matches_direct_forward(self, artifact, rng):
        x = rng.standard_normal((3, 8, 8))
        with ServingSession(artifact) as session:
            got = session.predict(x)
            dtype = session.input_dtype
        assert dtype == artifact.compute_dtype == np.float32
        with no_grad():
            expected = artifact.served_model("float")(
                Tensor(x[None].astype(dtype))
            ).data[0]
        np.testing.assert_array_equal(got, expected)

    def test_predict_batch_preserves_row_order(self, artifact64, rng):
        xs = rng.standard_normal((9, 3, 8, 8))
        config = ServeConfig(batch_window_s=0.01, max_batch_size=4, record_batches=True)
        with ServingSession(artifact64, config=config) as session:
            got = session.predict_batch(xs)
            stats = session.stats
        assert got.shape == (9, 4)
        assert stats.forwards < 9  # rows coalesced
        # Row i answers input i whatever the batching was: a strictly
        # sequential session must agree row by row (tiny float drift
        # across batch shapes is allowed; a row swap is not).
        sequential_config = ServeConfig(batch_window_s=0.0, max_batch_size=1)
        with ServingSession(artifact64, config=sequential_config) as session:
            sequential = session.predict_batch(xs)
        np.testing.assert_allclose(got, sequential, rtol=1e-9, atol=1e-12)

    def test_predict_batch_rejects_single_example(self, artifact):
        with ServingSession(artifact) as session:
            with pytest.raises(ValueError, match="batch"):
                session.predict_batch(np.zeros((3 * 8 * 8,)))

    def test_predict_labels(self, artifact, rng):
        xs = rng.standard_normal((5, 3, 8, 8))
        with ServingSession(artifact) as session:
            labels = session.predict_labels(xs)
            logits = session.predict_batch(xs)
        np.testing.assert_array_equal(labels, logits.argmax(axis=1))

    def test_warmup_uses_manifest_shape(self, artifact):
        with ServingSession(artifact) as session:
            session.warmup(count=2)
            assert session.stats.completed == 2


class TestLifecycle:
    def test_close_is_graceful_and_idempotent(self, artifact):
        session = ServingSession(artifact)
        pending = session.submit(np.zeros((3, 8, 8)))
        session.close()
        assert pending.result(timeout=1).shape == (4,)
        session.close()
        with pytest.raises(EngineClosed):
            session.predict(np.zeros((3, 8, 8)))

    def test_drain_completes_inflight_work(self, artifact):
        config = ServeConfig(autostart=False, batch_window_s=0.0)
        session = ServingSession(artifact, config=config)
        pendings = [session.submit(np.zeros((3, 8, 8))) for _ in range(3)]
        session.start()
        session.drain(timeout=10)
        assert all(pending.done() for pending in pendings)
        session.close()

    def test_stats_property(self, artifact):
        with ServingSession(artifact) as session:
            session.predict(np.zeros((3, 8, 8)))
            stats = session.stats
        assert stats.requests == 1 and stats.completed == 1


class TestCloseIdempotency:
    """Repeated close() is a contractual no-op, any drain flag, any
    pool shape — a drained, closed session closing again must not
    raise (regression for the __exit__/manual-close combination)."""

    def test_drained_closed_session_closes_again(self, artifact):
        session = ServingSession(artifact)
        session.predict(np.zeros((3, 8, 8)))
        session.drain(timeout=10)
        session.close()
        session.close()
        session.close(drain=False)
        session.close(timeout=10)

    def test_manual_close_then_context_exit(self, artifact):
        with ServingSession(artifact) as session:
            session.predict(np.zeros((3, 8, 8)))
            session.close()
        # __exit__ ran close(drain=True) on the closed session: no raise.

    def test_exceptional_exit_after_manual_close(self, artifact):
        with pytest.raises(RuntimeError, match="sentinel"):
            with ServingSession(artifact) as session:
                session.close()
                raise RuntimeError("sentinel")
        # __exit__ ran close(drain=False) on the closed session: the
        # original exception propagated, not a close()-era one.

    def test_path_source_releases_leases_exactly_once(
        self, quantized_mlp_factory, tmp_path
    ):
        model, manifest = quantized_mlp_factory()
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest)
        cache = ArtifactCache()
        session = ServingSession(path, config=ServeConfig(engines=2), cache=cache)
        session.close()
        assert cache.stats.releases == 2
        session.close()
        session.close(drain=False)
        assert cache.stats.releases == 2  # later closes never re-release

    def test_autoscaled_session_double_close(self, artifact):
        policy = AutoscalePolicy(min_engines=2, max_engines=3, interval_s=0.01)
        session = ServingSession(artifact, config=ServeConfig(autoscale=policy))
        session.predict(np.zeros((3, 8, 8)))
        session.close()
        session.close()

    def test_never_started_session_double_close(self, artifact):
        for drain in (True, False):
            session = ServingSession(artifact, config=ServeConfig(autostart=False))
            session.submit(np.zeros((3, 8, 8)))
            session.close(drain=drain)
            session.close(drain=drain)
            session.close(drain=not drain)


class TestSessionAdmission:
    def test_max_pending_flows_to_engines(self, artifact):
        config = ServeConfig(autostart=False, max_pending=1, engines=2)
        session = ServingSession(artifact, config=config)
        try:
            assert [e.max_pending for e in session.engines] == [1, 1]
            session.submit(np.zeros((3, 8, 8)))
            session.submit(np.zeros((3, 8, 8)))
            with pytest.raises(QueueFull, match="max_pending=1"):
                session.submit(np.zeros((3, 8, 8)))
            assert session.stats.rejected == 2  # both engines shed once
        finally:
            session.close(drain=False)

    def test_autoscaled_replacements_inherit_budget(self, artifact):
        policy = AutoscalePolicy(min_engines=1, max_engines=2, interval_s=0.01)
        config = ServeConfig(autoscale=policy, max_pending=7)
        session = ServingSession(artifact, config=config)
        try:
            session.pool.chaos_kill()
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                engines = [e for e in session.engines if not e.worker_died]
                if engines and all(e.max_pending == 7 for e in engines):
                    break
                time.sleep(0.01)
            else:
                pytest.fail("no live replacement engine appeared")
            assert all(e.max_pending == 7 for e in engines)
        finally:
            session.close()
