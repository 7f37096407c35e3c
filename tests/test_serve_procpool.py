"""Tests for repro.serve.procpool: process-backed serving over one
shared-memory artifact copy — the pickle-free wire codec, cross-worker
parity, chaos-kill supervision with zero-drop redispatch, shm segment
lifecycle, and the ServeConfig integration that makes thread- and
process-backed pools interchangeable."""

import gc
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    ArtifactCache,
    AutoscalePolicy,
    EnginePool,
    ProcessEnginePool,
    ReplayRun,
    ServeConfig,
    ServingSession,
    SharedArtifactSegment,
    compile_artifact,
    verify_replay,
)
from repro.serve.procpool import (
    _decode_batch,
    _decode_predict,
    _encode_batch,
    _encode_predict,
)
from repro.tensor.tensor import Tensor, no_grad


@pytest.fixture
def mlp_artifact(quantized_mlp_factory):
    model, manifest = quantized_mlp_factory()
    return compile_artifact(model, manifest)


def wait_until(predicate, timeout_s: float = 10.0, what: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"{what} did not hold within {timeout_s}s")
        time.sleep(0.01)


class PoolSession:
    """verify_replay's minimal session surface over a bare pool."""

    def __init__(self, pool, artifact=None):
        self.input_dtype = pool.input_dtype
        self.engine_records = pool.engine_records
        self.artifact = artifact  # integer parity needs a float reference


def replay_pool(pool, inputs):
    """Submit every row, wait for all answers, return a ReplayRun."""
    pendings = [pool.submit(x) for x in inputs]
    outputs = [pending.result(timeout=30) for pending in pendings]
    return ReplayRun(
        payload={},
        outputs=np.stack(outputs),
        request_ids=[pending.request_id for pending in pendings],
        engine_indices=[pending.engine_index for pending in pendings],
    )


# ----------------------------------------------------------------------
# wire codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_predict_round_trip_is_zero_copy(self):
        array = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        frame = _encode_predict(7, array)
        rid, decoded = _decode_predict(frame, np.dtype(np.float32))
        assert rid == 7
        assert decoded.shape == array.shape and decoded.dtype == array.dtype
        np.testing.assert_array_equal(decoded, array)
        # np.frombuffer over the received frame: no payload copy.
        assert decoded.base is not None

    def test_batch_round_trip(self):
        outputs = np.arange(12, dtype=np.float32).reshape(3, 4)
        frame = _encode_batch([3, 9, 27], 0.125, 12, outputs, None)
        service_s, acc_bits, rids, decoded, error = _decode_batch(frame)
        assert rids == [3, 9, 27]
        assert service_s == 0.125 and acc_bits == 12 and error is None
        np.testing.assert_array_equal(decoded, outputs)

    def test_batch_error_round_trip(self):
        _service_s, _acc_bits, rids, decoded, error = _decode_batch(
            _encode_batch([5], 0.0, 0, None, "model exploded: NaN")
        )
        assert rids == [5] and decoded is None
        assert error == "model exploded: NaN"


# ----------------------------------------------------------------------
# shared-memory segment lifecycle
# ----------------------------------------------------------------------
class TestSharedSegment:
    def test_create_attach_load_unlink(self, mlp_artifact):
        segment = SharedArtifactSegment.create(mlp_artifact.data)
        try:
            assert segment.nbytes == mlp_artifact.nbytes
            attached = SharedArtifactSegment.attach(segment.name, segment.nbytes)
            try:
                loaded = attached.load()
                # Same serialized bytes => same content identity, and the
                # parse reads straight out of the mapping.
                assert loaded.content_key == mlp_artifact.content_key
                assert loaded.shared_nbytes == loaded.nbytes
                # Drop the zero-copy views before unmapping, so the
                # mapping can actually close (workers do the same).
                del loaded
                gc.collect()
            finally:
                attached.close()
        finally:
            segment.close()
            segment.unlink()
        with pytest.raises(FileNotFoundError):
            SharedArtifactSegment.attach(segment.name, segment.nbytes)

    def test_unlink_is_owner_only_and_idempotent(self, mlp_artifact):
        segment = SharedArtifactSegment.create(mlp_artifact.data)
        attached = SharedArtifactSegment.attach(segment.name, segment.nbytes)
        attached.unlink()  # non-owner: silent no-op, name survives
        reattached = SharedArtifactSegment.attach(segment.name, segment.nbytes)
        reattached.close()
        attached.close()
        segment.close()
        segment.unlink()
        segment.unlink()  # second unlink is a no-op, not an error


# ----------------------------------------------------------------------
# process pool serving
# ----------------------------------------------------------------------
class TestProcessPoolServing:
    def test_parity_across_workers_and_shm_teardown(self, mlp_artifact):
        """Both workers answer over one shared artifact copy; every
        answer is bit-exact against the parent-side verification twins;
        close() releases every lease and unlinks the segment."""
        cache = ArtifactCache()
        pool = ProcessEnginePool(
            mlp_artifact, cache, workers=2,
            batch_window_s=0.0, record_batches=True,
        )
        segment_name = pool.segment.name
        segment_nbytes = pool.segment.nbytes
        try:
            inputs = np.random.default_rng(0).standard_normal((8, 3, 8, 8))
            run = replay_pool(pool, inputs)
            assert set(run.engine_indices) == {0, 1}  # round-robin fan-out
            assert verify_replay(PoolSession(pool), inputs, run, expected=8) == 8
            stats = pool.stats
            assert stats.requests == stats.completed == 8
            assert stats.backend == "float"
            shm = pool.shm_stats()
            assert shm["nbytes"] == mlp_artifact.nbytes
            assert shm["attached"] == 2 and not shm["unlinked"]
            # One verification twin leased per worker, all still active.
            assert cache.stats.leases == 2 and cache.active_leases() == 2
        finally:
            pool.close(drain=True, timeout=30)
        assert cache.active_leases() == 0
        assert pool.shm_stats()["unlinked"]
        with pytest.raises(FileNotFoundError):  # no shm leak
            SharedArtifactSegment.attach(segment_name, segment_nbytes)

    def test_answers_match_in_process_model(self, mlp_artifact):
        cache = ArtifactCache()
        pool = ProcessEnginePool(
            mlp_artifact, cache, workers=2, batch_window_s=0.0
        )
        try:
            x = np.random.default_rng(1).standard_normal((3, 8, 8))
            served = pool.submit(x).result(timeout=30)
            with no_grad():
                local = mlp_artifact.model()(
                    Tensor(x[None].astype(pool.input_dtype))
                ).data[0]
            np.testing.assert_array_equal(served, local)
        finally:
            pool.close(drain=True, timeout=30)

    def test_integer_backend_serves_packed_codes(self, quantized_mlp_factory):
        model, manifest = quantized_mlp_factory(act_bits=4)
        artifact = compile_artifact(model, manifest)
        cache = ArtifactCache()
        pool = ProcessEnginePool(
            artifact, cache, workers=2,
            batch_window_s=0.0, record_batches=True, backend="integer",
        )
        try:
            inputs = np.random.default_rng(2).standard_normal((4, 3, 8, 8))
            run = replay_pool(pool, inputs)
            # Integer parity: bit-exact against the parent's integer
            # twins, rescale-bounded inside verify_replay.
            session = PoolSession(pool, artifact=artifact)
            assert verify_replay(session, inputs, run, expected=4) == 4
            assert pool.stats.backend == "integer"
        finally:
            pool.close(drain=True, timeout=30)

    def test_is_an_engine_pool(self, mlp_artifact):
        assert issubclass(ProcessEnginePool, EnginePool)
        assert ProcessEnginePool.supports_chaos
        cache = ArtifactCache()
        pool = ProcessEnginePool(
            mlp_artifact, cache, workers=1, batch_window_s=0.0
        )
        try:
            scaling = pool.describe_scaling()
            assert scaling["kind"] == "process" and not scaling["enabled"]
            assert scaling["workers"] == 1
            assert pool.peak_engines == 1
        finally:
            pool.close(drain=True, timeout=30)

    def test_autostart_false_holds_rows_until_start(self, mlp_artifact):
        """Mirrors the thread engine's deterministic-coalescing test:
        rows queued before start() reach the worker only then, so they
        coalesce into full batches."""
        cache = ArtifactCache()
        pool = ProcessEnginePool(
            mlp_artifact, cache, workers=1,
            batch_window_s=0.5, max_batch_size=4,
            record_batches=True, autostart=False,
        )
        try:
            inputs = np.random.default_rng(5).standard_normal((10, 3, 8, 8))
            pendings = [pool.submit(x) for x in inputs]
            time.sleep(0.2)
            assert pool.stats.forwards == 0
            assert not any(pending.done() for pending in pendings)
            pool.start()
            pool.drain(timeout=30)
            (engine,) = pool.engines
            assert [len(batch) for batch in engine.executed_batches()] == [4, 4, 2]
            run = ReplayRun(
                payload={},
                outputs=np.stack([p.result(timeout=30) for p in pendings]),
                request_ids=[p.request_id for p in pendings],
                engine_indices=[p.engine_index for p in pendings],
            )
            assert verify_replay(PoolSession(pool), inputs, run, expected=10) == 10
        finally:
            pool.close(drain=True, timeout=30)

    def test_close_before_start_answers_held_rows(self, mlp_artifact):
        cache = ArtifactCache()
        pool = ProcessEnginePool(
            mlp_artifact, cache, workers=1, batch_window_s=0.0, autostart=False
        )
        x = np.random.default_rng(6).standard_normal((3, 8, 8))
        pending = pool.submit(x)
        pool.close(drain=True, timeout=30)
        with no_grad():
            local = mlp_artifact.model()(Tensor(x[None].astype(pool.input_dtype))).data[0]
        np.testing.assert_array_equal(pending.result(timeout=0), local)
        assert cache.active_leases() == 0

    def test_open_close_cycles_leave_no_thread_errors(self, mlp_artifact):
        """close() joins each worker's pipe reader before closing the
        pipe, so no reader thread dies inside recv_bytes."""
        errors = []
        previous = threading.excepthook
        threading.excepthook = errors.append
        try:
            cache = ArtifactCache()
            for cycle in range(6):
                pool = ProcessEnginePool(
                    mlp_artifact, cache, workers=2, batch_window_s=0.0
                )
                try:
                    inputs = np.random.default_rng(cycle).standard_normal((4, 3, 8, 8))
                    for pending in [pool.submit(x) for x in inputs]:
                        pending.result(timeout=30)
                finally:
                    pool.close(drain=cycle % 2 == 0, timeout=30)
                for _index, engine, _model in pool.engine_records():
                    assert not engine._reader.is_alive()
        finally:
            threading.excepthook = previous
        assert [f"{e.exc_type.__name__}: {e.exc_value}" for e in errors] == []


# ----------------------------------------------------------------------
# chaos: worker death mid-replay
# ----------------------------------------------------------------------
class TestProcessChaosKill:
    def test_killed_worker_is_replaced_and_orphans_redispatched(
        self, mlp_artifact
    ):
        """The resilience contract, cross-process: SIGKILL a worker with
        requests in flight → the supervisor detects the death, releases
        its lease and mapping, spawns a replacement, re-dispatches the
        orphans — and verify_replay(expected=N) proves zero drops."""
        cache = ArtifactCache()
        pool = ProcessEnginePool(
            mlp_artifact, cache, workers=2,
            batch_window_s=0.25,  # requests dwell in the worker's window
            record_batches=True,
        )
        try:
            inputs = np.random.default_rng(3).standard_normal((6, 3, 8, 8))
            pendings = [pool.submit(x) for x in inputs]
            killed = pool.chaos_kill(engine_index=0)
            assert killed == 0
            wait_until(
                lambda: pool.stats.engine_deaths >= 1, what="death detection"
            )
            outputs = [pending.result(timeout=30) for pending in pendings]
            run = ReplayRun(
                payload={},
                outputs=np.stack(outputs),
                request_ids=[p.request_id for p in pendings],
                engine_indices=[p.engine_index for p in pendings],
            )
            # Full coverage: every one of the 6 requests answered
            # bit-exact, including the rescued orphans.
            assert verify_replay(PoolSession(pool), inputs, run, expected=6) == 6
            stats = pool.stats
            assert stats.engine_deaths == 1
            assert stats.redispatched >= 1  # the dead worker held work
            actions = [event.action for event in pool.scale_events()]
            assert "death" in actions and "replace" in actions
            # shm refcount dropped for the corpse, replacement attached.
            shm = pool.shm_stats()
            assert shm["attached"] == 2 and shm["detached_total"] >= 1
            # Lease accounting: corpse's twin released, replacement active.
            assert cache.stats.leases == 3 and cache.active_leases() == 2
            fates = [fate["fate"] for fate in pool.engine_lifetimes_s()]
            assert fates.count("died") == 1
        finally:
            pool.close(drain=True, timeout=30)
        assert cache.active_leases() == 0
        assert pool.shm_stats()["unlinked"]  # no shm leak after chaos


# ----------------------------------------------------------------------
# ServeConfig integration: pools are swappable, no consumer branching
# ----------------------------------------------------------------------
class TestSessionProcessPool:
    def test_config_validation(self, mlp_artifact):
        with pytest.raises(ValueError, match="unknown pool kind"):
            ServingSession(mlp_artifact, config=ServeConfig(pool="fiber"))
        with pytest.raises(ValueError, match="not both"):
            ServingSession(
                mlp_artifact,
                config=ServeConfig(
                    pool="process", autoscale=AutoscalePolicy(max_engines=2)
                ),
            )
        with pytest.raises(ValueError, match="workers"):
            ServingSession(
                mlp_artifact, config=ServeConfig(pool="process", engines=2)
            )

    def test_bare_model_cannot_cross_processes(self, quantized_mlp_factory):
        model, _manifest = quantized_mlp_factory()
        with pytest.raises(ValueError, match="artifact"):
            ServingSession(model, config=ServeConfig(pool="process"))

    def test_session_serves_through_worker_processes(self, mlp_artifact):
        config = ServeConfig(pool="process", workers=2, record_batches=True)
        with ServingSession(mlp_artifact, config=config) as session:
            assert isinstance(session.pool, ProcessEnginePool)
            xs = np.random.default_rng(4).standard_normal((4, 3, 8, 8))
            pendings = [session.submit(x) for x in xs]
            run = ReplayRun(
                payload={},
                outputs=np.stack([p.result(timeout=30) for p in pendings]),
                request_ids=[p.request_id for p in pendings],
                engine_indices=[p.engine_index for p in pendings],
            )
            # Bit-exact parity via the standard guard — the same
            # verify_replay call the thread-backed session satisfies.
            assert verify_replay(session, xs, run, expected=4) == 4
            # The session consumes the pool through the EnginePool
            # interface: the same scaling surface as every other pool.
            assert session.pool.describe_scaling()["kind"] == "process"
