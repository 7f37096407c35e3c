"""Tests for repro.serve.procpool: process-backed serving over one
shared-memory artifact copy — the pickle-free wire codec, cross-worker
parity, chaos-kill supervision with zero-drop redispatch, shm segment
lifecycle, process + autoscale, and the ServeConfig integration that
makes the thread and process placements interchangeable."""

import gc
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.module import Module
from repro.serve import (
    ArtifactCache,
    AutoscalePolicy,
    EnginePool,
    InferenceEngine,
    PendingPrediction,
    ProcessPlacement,
    ReplayRun,
    ServeConfig,
    ServingSession,
    SharedArtifactSegment,
    ThreadPlacement,
    compile_artifact,
    resolve_policy,
    verify_replay,
)
from repro.serve import procpool
from repro.serve.procpool import (
    _decode_batch,
    _decode_predict,
    _decode_predicts,
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


def process_pool(
    artifact, cache, workers=2, policy=None, autostart=True, **worker_kwargs
) -> EnginePool:
    """An EnginePool of worker processes (fixed at ``workers`` unless a
    ``policy`` is given)."""
    placement = ProcessPlacement(artifact, cache, ServeConfig(**worker_kwargs))
    if policy is None:
        policy = AutoscalePolicy(min_engines=workers, max_engines=workers)
    return EnginePool(placement, policy, autostart=autostart)


def placement_pool(kind, artifact, cache, autostart=True, **engine_kwargs) -> EnginePool:
    """A one-engine pool of either placement over ``artifact``."""
    placement_type = ProcessPlacement if kind == "process" else ThreadPlacement
    placement = placement_type(artifact, cache, ServeConfig(**engine_kwargs))
    policy = AutoscalePolicy(min_engines=1, max_engines=1)
    return EnginePool(placement, policy, autostart=autostart)


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


def wire_frames():
    """Valid frames of every kind the decoders read, keyed by decoder."""
    rows = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
    predicts = [_encode_predict(7, rows[0]), _encode_predict(8, rows)]
    return [
        ("predict", predicts[0]),
        ("predicts", b"".join(predicts)),
        ("batch", _encode_batch([3, 9], 0.5, 12, rows[:, 0], None)),
        ("batch", _encode_batch([5], 0.0, 0, None, "model exploded: NaN")),
    ]


def decode(kind, frame):
    if kind == "batch":
        return _decode_batch(frame)
    if kind == "predict":
        return _decode_predict(frame, np.dtype(np.float32))
    return _decode_predicts(frame, np.dtype(np.float32))


class TestMalformedFrames:
    """Every decoder turns a malformed frame into ``ValueError``: no
    ``struct.error``, ``TypeError`` or ``MemoryError``, and no header
    length trusted past the bytes that remain."""

    @pytest.mark.parametrize(
        "kind,frame",
        [
            ("batch", b"\x01"),
            ("predict", b"\x01"),
            ("predicts", b"\x01"),
            ("batch", bytes(21)),  # a zero dtype name
            # 2**32 - 1 rids claimed by a 16-byte frame
            ("batch", _encode_batch([], 0.0, 0, None, "x")[:12] + b"\xff" * 4),
            ("predict", _encode_predict(1, np.zeros((4, 4), np.float32))[:-1]),
            ("batch", _encode_batch([1], 0.0, 0, np.zeros((2, 3), np.float32))),
            ("batch", _encode_batch([1], 0.0, 0, np.zeros((1, 3), np.float32)) + b"\0"),
            ("batch", _encode_batch([1], 0.0, 0, np.zeros((1, 3), object))),
        ],
        ids=[
            "batch-one-byte", "predict-one-byte", "predicts-one-byte",
            "batch-zero-dtype", "rid-count-overrun", "predict-short-payload",
            "rows-disagree-with-rids", "stray-bytes", "object-dtype",
        ],
    )
    def test_known_malformed_frames_raise_value_error(self, kind, frame):
        with pytest.raises(ValueError):
            decode(kind, frame)

    @settings(max_examples=200, deadline=None)
    @given(
        index=st.integers(0, len(wire_frames()) - 1),
        cut=st.integers(0, 10_000),
        flips=st.lists(st.integers(0, 10_000), max_size=3),
    )
    def test_truncated_and_bit_flipped_frames(self, index, cut, flips):
        kind, frame = wire_frames()[index]
        data = bytearray(frame)
        for bit in flips:
            data[(bit // 8) % len(data)] ^= 1 << (bit % 8)
        data = bytes(data[: len(data) - cut % len(data)] if cut % 3 else data)
        try:
            decode(kind, data)
        except ValueError:
            pass


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
        pool = process_pool(
            mlp_artifact, cache, workers=2,
            batch_window_s=0.0, record_batches=True,
        )
        segment_name = pool.placement.segment.name
        segment_nbytes = pool.placement.segment.nbytes
        try:
            inputs = np.random.default_rng(0).standard_normal((8, 3, 8, 8))
            run = replay_pool(pool, inputs)
            assert set(run.engine_indices) == {0, 1}  # round-robin fan-out
            assert verify_replay(PoolSession(pool), inputs, run, expected=8) == 8
            stats = pool.stats
            assert stats.requests == stats.completed == 8
            assert stats.backend == "float"
            shm = pool.placement.shm_stats()
            assert shm["nbytes"] == mlp_artifact.nbytes
            assert shm["attached"] == 2 and not shm["unlinked"]
            # One verification twin leased per worker, all still active.
            assert cache.stats.leases == 2 and cache.active_leases() == 2
        finally:
            pool.close(drain=True, timeout=30)
        assert cache.active_leases() == 0
        assert pool.placement.shm_stats()["unlinked"]
        with pytest.raises(FileNotFoundError):  # no shm leak
            SharedArtifactSegment.attach(segment_name, segment_nbytes)

    def test_answers_match_in_process_model(self, mlp_artifact):
        cache = ArtifactCache()
        pool = process_pool(
            mlp_artifact, cache, workers=2, batch_window_s=0.0
        )
        try:
            x = np.random.default_rng(1).standard_normal((3, 8, 8))
            served = pool.submit(x).result(timeout=30)
            with no_grad():
                local = mlp_artifact.served_model("float")(
                    Tensor(x[None].astype(pool.input_dtype))
                ).data[0]
            np.testing.assert_array_equal(served, local)
        finally:
            pool.close(drain=True, timeout=30)

    def test_integer_backend_serves_packed_codes(self, quantized_mlp_factory):
        model, manifest = quantized_mlp_factory(act_bits=4)
        artifact = compile_artifact(model, manifest)
        cache = ArtifactCache()
        pool = process_pool(
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
        cache = ArtifactCache()
        pool = process_pool(
            mlp_artifact, cache, workers=1, batch_window_s=0.0
        )
        try:
            assert isinstance(pool, EnginePool) and pool.supports_chaos
            scaling = pool.describe_scaling()
            assert scaling["placement"] == "process" and not scaling["enabled"]
            assert scaling["engines"] == 1
            assert pool.peak_engines == 1
        finally:
            pool.close(drain=True, timeout=30)

    def test_autostart_false_holds_rows_until_start(self, mlp_artifact):
        """Mirrors the thread engine's deterministic-coalescing test:
        rows queued before start() reach the worker only then, so they
        coalesce into full batches."""
        cache = ArtifactCache()
        pool = process_pool(
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
        pool = process_pool(
            mlp_artifact, cache, workers=1, batch_window_s=0.0, autostart=False
        )
        x = np.random.default_rng(6).standard_normal((3, 8, 8))
        pending = pool.submit(x)
        pool.close(drain=True, timeout=30)
        with no_grad():
            local = mlp_artifact.served_model("float")(Tensor(x[None].astype(pool.input_dtype))).data[0]
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
                pool = process_pool(
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
        # Rows held until start() reach each worker as a backlog, which
        # dwells in the worker's window until the kill lands.
        pool = process_pool(
            mlp_artifact, cache, workers=2, autostart=False,
            batch_window_s=0.25, record_batches=True,
        )
        try:
            inputs = np.random.default_rng(3).standard_normal((6, 3, 8, 8))
            pendings = [pool.submit(x) for x in inputs]
            pool.start()
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
            shm = pool.placement.shm_stats()
            assert shm["attached"] == 2 and shm["detached_total"] >= 1
            # Lease accounting: corpse's twin released, replacement active.
            assert cache.stats.leases == 3 and cache.active_leases() == 2
            fates = [fate["fate"] for fate in pool.engine_lifetimes_s()]
            assert fates.count("died") == 1
        finally:
            pool.close(drain=True, timeout=30)
        assert cache.active_leases() == 0
        assert pool.placement.shm_stats()["unlinked"]  # no shm leak after chaos


    def test_submit_to_a_lone_dead_worker_sweeps_and_replaces(
        self, mlp_artifact
    ):
        """A dead worker turns submits away; when it is the only one and
        the supervisor has not swept it yet, submit() sweeps itself:
        the replacement answers instead of the caller seeing a closed
        pool."""
        cache = ArtifactCache()
        inert = AutoscalePolicy(min_engines=1, max_engines=1, interval_s=60.0)
        pool = process_pool(
            mlp_artifact, cache, policy=inert,
            batch_window_s=0.0, record_batches=True,
        )
        try:
            pool.chaos_kill()
            wait_until(lambda: pool.engines[0].worker_died, what="worker death")
            x = np.random.default_rng(10).standard_normal((3, 8, 8))
            pending = pool.submit(x)
            served = pending.result(timeout=30)
            assert pending.engine_index == 1
            assert pool.stats.engine_deaths == 1
            with no_grad():
                local = mlp_artifact.served_model("float")(
                    Tensor(x[None].astype(pool.input_dtype))
                ).data[0]
            np.testing.assert_array_equal(served, local)
        finally:
            pool.close(drain=True, timeout=30)
        assert cache.active_leases() == 0


    def test_racing_submitters_handle_one_death_once(self, mlp_artifact):
        """Submitters race the supervisor to a lone dead worker under a
        tiny switch interval: exactly one of them handles the death,
        the others wait for its replacement, and every row answers
        bit-exact."""
        cache = ArtifactCache()
        policy = AutoscalePolicy(min_engines=1, max_engines=1, interval_s=0.001)
        pool = process_pool(
            mlp_artifact, cache, policy=policy,
            batch_window_s=0.0, record_batches=True,
        )
        clients, rows = 6, 5
        inputs = np.random.default_rng(11).standard_normal((clients * rows, 3, 8, 8))
        pendings = [None] * len(inputs)
        errors = []

        def client(offset):
            try:
                for row in range(offset, len(inputs), clients):
                    pendings[row] = pool.submit(inputs[row])
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pool.chaos_kill()
            threads = [
                threading.Thread(target=client, args=(offset,))
                for offset in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        try:
            assert errors == []
            run = ReplayRun(
                payload={},
                outputs=np.stack([p.result(timeout=30) for p in pendings]),
                request_ids=[p.request_id for p in pendings],
                engine_indices=[p.engine_index for p in pendings],
            )
            assert verify_replay(
                PoolSession(pool), inputs, run, expected=len(inputs)
            ) == len(inputs)
            wait_until(lambda: pool.stats.engine_deaths >= 1, what="death")
            actions = [event.action for event in pool.scale_events()]
            assert actions.count("death") == 1 and actions.count("replace") == 1
            assert len(pool) == 1 and cache.active_leases() == 1
        finally:
            pool.close(drain=True, timeout=30)
        assert cache.active_leases() == 0
        assert cache.stats.leases == cache.stats.releases == 2


# ----------------------------------------------------------------------
# process + autoscale: the policy is placement-agnostic
# ----------------------------------------------------------------------
class TestProcessAutoscale:
    def test_scales_up_under_a_queued_burst(self, mlp_artifact):
        """Rows queued before start() build depth on the one worker; the
        supervisor spawns a second worker over the same segment, and
        every row still answers bit-exact."""
        cache = ArtifactCache()
        policy = AutoscalePolicy(
            min_engines=1, max_engines=2, scale_up_depth=3.0,
            scale_down_depth=0.5, cooldown_s=0.0, interval_s=0.005,
        )
        pool = process_pool(
            mlp_artifact, cache, policy=policy, autostart=False,
            batch_window_s=0.0, record_batches=True,
        )
        segment = pool.placement.segment
        try:
            inputs = np.random.default_rng(8).standard_normal((16, 3, 8, 8))
            pendings = [pool.submit(x) for x in inputs]
            pool._start_supervisor()
            wait_until(lambda: pool.stats.scale_ups >= 1, what="scale-up")
            assert pool.peak_engines == 2
            assert pool.placement.shm_stats()["attached"] == 2
            assert cache.stats.leases == 2
            pool.start()
            run = ReplayRun(
                payload={},
                outputs=np.stack([p.result(timeout=30) for p in pendings]),
                request_ids=[p.request_id for p in pendings],
                engine_indices=[p.engine_index for p in pendings],
            )
            assert verify_replay(PoolSession(pool), inputs, run, expected=16) == 16
            scaling = pool.describe_scaling()
            assert scaling["enabled"] and scaling["placement"] == "process"
            assert scaling["events"][0]["action"] == "up"
        finally:
            pool.close(drain=True, timeout=30)
        assert cache.active_leases() == 0
        assert cache.stats.leases == cache.stats.releases
        with pytest.raises(FileNotFoundError):  # no shm leak
            SharedArtifactSegment.attach(segment.name, segment.nbytes)

    def test_session_process_autoscale(self, mlp_artifact):
        policy = AutoscalePolicy(min_engines=1, max_engines=3, interval_s=0.01)
        config = ServeConfig(pool="process", autoscale=policy, record_batches=True)
        with ServingSession(mlp_artifact, config=config) as session:
            assert len(session.engines) == 1
            assert session.pool.describe_scaling()["policy"] == policy.to_dict()
            xs = np.random.default_rng(9).standard_normal((4, 3, 8, 8))
            run = replay_pool(session, xs)
            assert verify_replay(session, xs, run, expected=4) == 4
        assert session.cache.active_leases() == 0


# ----------------------------------------------------------------------
# ServeConfig integration: pools are swappable, no consumer branching
# ----------------------------------------------------------------------
class TestSessionProcessPool:
    def test_config_validation(self, mlp_artifact):
        with pytest.raises(ValueError, match="unknown pool kind"):
            ServingSession(mlp_artifact, config=ServeConfig(pool="fiber"))
        # Process + autoscale is a valid combination: the policy bounds
        # the worker count.
        policy = AutoscalePolicy(max_engines=2)
        assert resolve_policy(ServeConfig(pool="process", autoscale=policy)) == policy
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
            assert isinstance(session.pool.placement, ProcessPlacement)
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
            # The one EnginePool: the same scaling report as every
            # other placement.
            assert session.pool.describe_scaling()["placement"] == "process"


# ----------------------------------------------------------------------
# one engine core: both placements admit, batch, account and drain alike
# ----------------------------------------------------------------------
class GatedModel(Module):
    """Identity whose forward blocks until ``release`` is set."""

    def __init__(self):
        super().__init__()
        self.entered = threading.Event()
        self.release = threading.Event()

    def forward(self, x):
        self.entered.set()
        self.release.wait(10)
        return x


def assert_held_rows_coalesce(kind, artifact, batch_window_s, seed):
    """Ten rows queued before start() on a one-engine pool capped at 4
    run as ``[4, 4, 2]``, and every answer replays bit-exactly."""
    pool = placement_pool(
        kind, artifact, ArtifactCache(), autostart=False,
        batch_window_s=batch_window_s, max_batch_size=4, record_batches=True,
    )
    try:
        inputs = np.random.default_rng(seed).standard_normal((10, 3, 8, 8))
        pendings = [pool.submit(x) for x in inputs]
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


@pytest.mark.parametrize("kind", ["thread", "process"])
class TestOneEngineCore:
    def test_zero_window_coalesces_held_rows(self, mlp_artifact, kind):
        """Rows queued before start() coalesce into full batches even
        with no window: rows already received join the open batch."""
        assert_held_rows_coalesce(kind, mlp_artifact, batch_window_s=0.0, seed=12)

    def test_drain_returns_after_answers_are_delivered(
        self, mlp_artifact, kind, monkeypatch
    ):
        """A slow answer delivery keeps drain() waiting: rows leave the
        outstanding table only once their futures are resolved."""
        entered = threading.Event()
        finish = PendingPrediction._finish

        def slow_finish(self, *args, **kwargs):
            entered.set()
            time.sleep(0.3)
            finish(self, *args, **kwargs)

        monkeypatch.setattr(PendingPrediction, "_finish", slow_finish)
        cache = ArtifactCache()
        pool = placement_pool(kind, mlp_artifact, cache, batch_window_s=0.0)
        try:
            pending = pool.submit(np.zeros((3, 8, 8)))
            assert entered.wait(30)
            pool.drain(timeout=30)
            assert pending.done()
        finally:
            pool.close(drain=True, timeout=30)

    def test_max_queue_depth_counts_outstanding_requests(self, mlp_artifact, kind):
        """Seven rows admitted and unanswered read as depth 7 on both
        placements. On threads, four of them are in flight in a gated
        forward while three queue; on processes all seven are held
        before start()."""
        rows = [np.ones(3)] * 7 if kind == "thread" else [np.zeros((3, 8, 8))] * 7
        if kind == "thread":
            model = GatedModel()
            engine = InferenceEngine(model, batch_window_s=0.0, max_batch_size=4)
            pendings = [engine.submit(x) for x in rows[:4]]
            assert model.entered.wait(10)
            pendings += [engine.submit(x) for x in rows[4:]]
            assert engine.queue_depth == 7
            model.release.set()
            engine.close(drain=True, timeout=30)
            stats = engine.stats
        else:
            pool = placement_pool(
                kind, mlp_artifact, ArtifactCache(), autostart=False,
                batch_window_s=0.0, max_batch_size=4,
            )
            try:
                pendings = [pool.submit(x) for x in rows]
                assert pool.engines[0].queue_depth == 7
                pool.start()
                pool.drain(timeout=30)
            finally:
                pool.close(drain=True, timeout=30)
            stats = pool.stats
        assert all(pending.done() for pending in pendings)
        assert stats.completed == 7 and stats.max_queue_depth == 7


class TestReaderFailure:
    def test_reader_failure_is_a_death_and_the_row_is_rescued(
        self, mlp_artifact, monkeypatch
    ):
        """A pipe reader that fails while handling an answer marks its
        worker dead: the supervisor replaces it and re-dispatches the
        unanswered row, instead of leaving drain() to hang."""
        calls = []

        def decode_once_failing(frame):
            calls.append(frame)
            if len(calls) == 1:
                raise ValueError("corrupt answer frame")
            return _decode_batch(frame)

        monkeypatch.setattr(procpool, "_decode_batch", decode_once_failing)
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        config = ServeConfig(pool="process", workers=1, batch_window_s=0.0)
        with ServingSession(mlp_artifact, config=config) as session:
            x = np.random.default_rng(13).standard_normal((3, 8, 8))
            pending = session.submit(x)
            served = pending.result(timeout=30)
            session.drain(timeout=30)
            assert pending.engine_index == 1  # answered by the replacement
            assert session.stats.engine_deaths == 1
        with no_grad():
            local = mlp_artifact.served_model("float")(Tensor(x[None].astype(served.dtype))).data[0]
        np.testing.assert_array_equal(served, local)
        # The failure stays loud: the reader's exception reached the hook.
        assert [type(error.exc_value) for error in errors] == [ValueError]


# ----------------------------------------------------------------------
# idle dispatch: the window only fills batches formed from a backlog
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["thread", "process"])
class TestIdleDispatch:
    def test_lone_row_on_an_idle_engine_runs_at_once(self, mlp_artifact, kind):
        """A row that reaches an idle, started engine is answered long
        before a 10 s window could expire."""
        cache = ArtifactCache()
        pool = placement_pool(kind, mlp_artifact, cache, batch_window_s=10.0)
        try:
            pool.predict(np.zeros((3, 8, 8)), timeout=2.0)
        finally:
            pool.close(drain=True, timeout=30)

    def test_backlog_queued_before_start_coalesces(self, mlp_artifact, kind):
        """Rows queued before start() at a non-zero window still form
        full batches; only the short tail waits out the window."""
        assert_held_rows_coalesce(kind, mlp_artifact, batch_window_s=0.05, seed=14)


class TestBusyWorkerBatching:
    def test_rows_arriving_during_a_forward_form_the_next_batch(self):
        """Rows that queue behind a gated forward are a backlog: once
        the forward ends they form the next batch, and the window holds
        it open for rows that arrive after the forward."""
        model = GatedModel()
        engine = InferenceEngine(
            model, batch_window_s=10.0, max_batch_size=4, record_batches=True
        )
        try:
            rows = [np.full(3, float(i)) for i in range(5)]
            first = engine.submit(rows[0])
            assert model.entered.wait(10)  # an idle engine ran the lone row
            later = [engine.submit(x) for x in rows[1:3]]
            model.release.set()
            np.testing.assert_array_equal(first.result(timeout=10), rows[0])
            later += [engine.submit(x) for x in rows[3:]]
            for pending, x in zip(later, rows[1:]):
                np.testing.assert_array_equal(pending.result(timeout=5), x)
            assert [len(batch) for batch in engine.executed_batches()] == [1, 4]
        finally:
            model.release.set()
            engine.close(drain=True, timeout=30)
