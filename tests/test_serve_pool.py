"""Tests for repro.serve.pool: round-robin fan-out, lifecycle, stats,
autoscaling and the chaos-kill recovery path of the one EnginePool."""

import time

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.serve import (
    ArtifactCache,
    AutoscaleDecider,
    AutoscalePolicy,
    EngineDied,
    EnginePool,
    QueueFull,
    ReplayRun,
    ServeConfig,
    ShutdownTimeout,
    ThreadPlacement,
    compile_artifact,
    verify_replay,
)


def make_toy_model(scale: float = 1.0) -> Module:
    model = Linear(3, 2, rng=np.random.default_rng(0))
    model.weight.data[...] = scale * np.arange(6, dtype=np.float64).reshape(2, 3)
    model.bias.data[...] = 0.0
    return model


class SlowModel(Module):
    def __init__(self, delay_s: float = 0.4):
        super().__init__()
        self.delay_s = delay_s

    def forward(self, x):
        time.sleep(self.delay_s)
        return x


def fixed_pool(models, autostart=True, **engine_kwargs) -> EnginePool:
    """A fixed pool with one engine per bare model."""
    placement = ThreadPlacement(models, None, ServeConfig(**engine_kwargs))
    count = len(models)
    return EnginePool(
        placement,
        AutoscalePolicy(min_engines=count, max_engines=count),
        autostart=autostart,
    )


def leased_pool(artifact, cache, policy, autostart=True, **engine_kwargs) -> EnginePool:
    """A pool whose engines lease clones of ``artifact`` from ``cache``."""
    placement = ThreadPlacement(artifact, cache, ServeConfig(**engine_kwargs))
    return EnginePool(placement, policy, autostart=autostart)


def strand_on_killed_engine(pool, inputs):
    """Queue ``inputs`` on the not-yet-started pool's one engine, start
    it so its worker holds the backlog in a long batch window, then
    kill it there: every row becomes an orphan of a dead, unswept
    engine (a dead engine turns new submits away, so the rows must
    land before the kill)."""
    (engine,) = pool.engines
    engine.batch_window_s = 10.0  # replacements keep the placement's window
    pendings = [pool.submit(x) for x in inputs]
    pool.start()
    assert pool.chaos_kill() == 0
    deadline = time.monotonic() + 5.0
    while not engine.worker_died:
        if time.monotonic() > deadline:
            raise AssertionError("killed worker did not die in time")
        time.sleep(0.005)
    return pendings


class TestPoolBasics:
    def test_needs_models(self):
        with pytest.raises(ValueError, match="at least one model"):
            fixed_pool([])

    def test_rejects_shared_model_objects(self):
        model = make_toy_model()
        with pytest.raises(ValueError, match="distinct"):
            fixed_pool([model, model])

    def test_round_robin_assignment(self):
        models = [make_toy_model() for _ in range(3)]
        with fixed_pool(models, batch_window_s=0.0) as pool:
            assert len(pool) == 3
            pendings = [pool.submit(np.ones(3)) for _ in range(7)]
            for pending in pendings:
                pending.result(timeout=10)
            assert [p.engine_index for p in pendings] == [0, 1, 2, 0, 1, 2, 0]
            per_engine = pool.per_engine_stats()
            assert [stats.requests for stats in per_engine] == [3, 2, 2]

    def test_identical_models_answer_identically(self):
        models = [make_toy_model() for _ in range(2)]
        x = np.arange(3, dtype=np.float64)
        with fixed_pool(models, batch_window_s=0.0) as pool:
            first = pool.predict(x, timeout=10)
            second = pool.predict(x, timeout=10)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, x @ models[0].weight.data.T)

    def test_combined_stats_sum_over_engines(self):
        models = [make_toy_model() for _ in range(2)]
        with fixed_pool(models, batch_window_s=0.0) as pool:
            for _ in range(6):
                pool.predict(np.ones(3), timeout=10)
            stats = pool.stats
        assert stats.requests == 6 and stats.completed == 6
        assert stats.forwards == sum(s.forwards for s in pool.per_engine_stats())

    def test_input_dtype_exposed(self):
        with fixed_pool([make_toy_model()]) as pool:
            assert pool.input_dtype == np.float64


class TestPoolLifecycle:
    def test_deferred_start_and_drain(self):
        models = [make_toy_model() for _ in range(2)]
        pool = fixed_pool(models, batch_window_s=0.0, autostart=False)
        pendings = [pool.submit(np.full(3, i)) for i in range(4)]
        pool.start()
        pool.drain(timeout=10)
        assert all(pending.done() for pending in pendings)
        pool.close()

    def test_close_timeout_names_laggards(self):
        pool = fixed_pool(
            [SlowModel(0.4), SlowModel(0.4)], batch_window_s=0.0
        )
        pendings = [pool.submit(np.ones(3)) for _ in range(2)]
        with pytest.raises(ShutdownTimeout, match="engines"):
            pool.close(drain=True, timeout=0.02)
        for pending in pendings:
            pending.result(timeout=10)
        pool.close(drain=True, timeout=10)  # patient close succeeds

    def test_close_is_idempotent(self):
        pool = fixed_pool([make_toy_model()])
        pool.close()
        pool.close()

    def test_queue_full_tries_next_engine_before_shedding(self):
        """The pool's effective budget is the sum of its engines': a
        full engine is skipped for a live one with headroom, and
        QueueFull propagates only when every live engine shed."""
        models = [make_toy_model() for _ in range(2)]
        pool = fixed_pool(
            models, batch_window_s=0.0, autostart=False, max_pending=2
        )
        engines = pool.engines
        # Fill engine 0's budget out-of-band; the pool rotation starts
        # there, so each pool submit must skip past it to engine 1.
        direct = [engines[0].submit(np.ones(3)) for _ in range(2)]
        routed = [pool.submit(np.ones(3)) for _ in range(2)]
        assert [p.engine_index for p in routed] == [1, 1]
        # Now every live engine is at budget: the pool sheds.
        with pytest.raises(QueueFull, match="max_pending=2"):
            pool.submit(np.ones(3))
        # Per-engine `rejected` counts every engine-level shed, even
        # ones a rotation peer later absorbed: engine 0 shed each of
        # the two skipped submits plus the final one, engine 1 only
        # the final one.
        assert [s.rejected for s in pool.per_engine_stats()] == [3, 1]
        pool.start()
        pool.drain(timeout=10)
        recovered = pool.submit(np.ones(3))  # budget restored
        recovered.result(timeout=10)
        pool.close(timeout=10)
        assert all(p.done() for p in direct + routed)
        assert pool.stats.requests == 5 and pool.stats.rejected == 4

    def test_close_sweeps_past_a_failing_engine(self):
        """Regression: one engine's close() raising a non-timeout error
        must not abort the sweep — the later engines still close (no
        leaked worker threads) and the failure is re-raised after."""
        models = [make_toy_model() for _ in range(3)]
        pool = fixed_pool(models, batch_window_s=0.0)
        engines = pool.engines
        victim = engines[1]
        real_close = victim.close

        def exploding_close(drain=True, timeout=None):
            raise RuntimeError("boom")

        victim.close = exploding_close
        with pytest.raises(RuntimeError, match="boom"):
            pool.close(drain=True, timeout=10)
        # The engines after the failing one were still shut down.
        assert not engines[0]._thread.is_alive()
        assert not engines[2]._thread.is_alive()
        victim.close = real_close
        pool.close(drain=True, timeout=10)
        assert not victim._thread.is_alive()

    def test_drain_expired_deadline_names_unreached_engines(self):
        """Regression: an already-expired pool deadline used to turn
        into zero-second engine waits, misattributing the timeout to
        whichever engine was visited next. It now raises immediately,
        naming the engines that were never waited on."""
        pool = fixed_pool(
            [SlowModel(0.2), SlowModel(0.2)], batch_window_s=0.0
        )
        pendings = [pool.submit(np.ones(3)) for _ in range(2)]
        with pytest.raises(TimeoutError, match=r"engines \[0, 1\]"):
            pool.drain(timeout=0.0)
        for pending in pendings:
            pending.result(timeout=10)
        pool.close(drain=True, timeout=10)

    def test_close_expired_deadline_names_unreached_engines(self):
        pool = fixed_pool(
            [SlowModel(0.2), SlowModel(0.2)], batch_window_s=0.0
        )
        pendings = [pool.submit(np.ones(3)) for _ in range(2)]
        with pytest.raises(ShutdownTimeout, match=r"never reached"):
            pool.close(drain=True, timeout=0.0)
        for pending in pendings:
            pending.result(timeout=10)
        pool.close(drain=True, timeout=10)


class TestAutoscaleDecider:
    def make(self, **overrides):
        policy = dict(
            min_engines=1,
            max_engines=4,
            scale_up_depth=8.0,
            scale_down_depth=1.0,
            cooldown_s=1.0,
            interval_s=0.01,
        )
        policy.update(overrides)
        return AutoscaleDecider(AutoscalePolicy(**policy))

    def test_scales_up_above_threshold(self):
        assert self.make().observe(8.0, engines=1, now_s=0.0) == "up"

    def test_scales_down_below_threshold(self):
        assert self.make().observe(0.5, engines=2, now_s=0.0) == "down"

    def test_band_between_thresholds_is_inert(self):
        decider = self.make()
        for depth in (2.0, 5.0, 7.9):
            assert decider.observe(depth, engines=2, now_s=0.0) is None

    def test_respects_bounds(self):
        assert self.make().observe(50.0, engines=4, now_s=0.0) is None
        assert self.make().observe(0.0, engines=1, now_s=0.0) is None

    def test_cooldown_blocks_consecutive_events(self):
        decider = self.make(cooldown_s=1.0)
        assert decider.observe(10.0, engines=1, now_s=0.0) == "up"
        assert decider.observe(10.0, engines=2, now_s=0.5) is None
        assert decider.observe(10.0, engines=2, now_s=1.1) == "up"

    def test_no_flapping_under_oscillating_depth(self):
        """A queue oscillating inside the hysteresis band must produce
        zero scale events no matter how fast it swings."""
        decider = self.make()
        depths = [1.5, 7.5] * 50  # just inside both thresholds
        actions = [
            decider.observe(depth, engines=2, now_s=0.01 * step)
            for step, depth in enumerate(depths)
        ]
        assert actions == [None] * len(depths)

    def test_oscillation_across_thresholds_is_rate_limited_by_cooldown(self):
        """Even swinging *across* both thresholds, the cooldown caps the
        event rate — 100 violent samples in one cooldown window may
        produce at most one event after the first."""
        decider = self.make(cooldown_s=1.0)
        depths = [0.0, 20.0] * 50
        actions = [
            decider.observe(depth, engines=2, now_s=0.005 * step)
            for step, depth in enumerate(depths)
        ]
        events = [action for action in actions if action is not None]
        assert len(events) == 1

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="hysteresis"):
            AutoscalePolicy(scale_up_depth=2.0, scale_down_depth=2.0)
        with pytest.raises(ValueError, match="min_engines"):
            AutoscalePolicy(min_engines=0)
        with pytest.raises(ValueError, match="max_engines"):
            AutoscalePolicy(min_engines=3, max_engines=2)


@pytest.fixture
def mlp_artifact(quantized_mlp_factory):
    model, manifest = quantized_mlp_factory()
    return compile_artifact(model, manifest)


#: A policy whose supervisor is effectively inert (60 s interval), so
#: tests drive _consider_scaling()/_sweep_deaths() by hand and the
#: scaling sequence is fully deterministic.
MANUAL = dict(cooldown_s=0.0, interval_s=60.0)


class TestAutoscalingPool:
    def test_scales_up_under_queue_depth_and_back_down(self, mlp_artifact):
        cache = ArtifactCache()
        policy = AutoscalePolicy(
            min_engines=1, max_engines=3, scale_up_depth=4.0,
            scale_down_depth=1.0, **MANUAL
        )
        pool = leased_pool(
            mlp_artifact, cache, policy,
            batch_window_s=0.0, autostart=False,
        )
        assert cache.active_leases() == 1
        pendings = [pool.submit(np.zeros((3, 8, 8))) for _ in range(12)]
        pool._consider_scaling()  # depth 12 >= 4
        assert len(pool) == 2 and cache.active_leases() == 2
        pool._consider_scaling()  # depth 6 >= 4
        assert len(pool) == 3 and cache.active_leases() == 3
        pool._consider_scaling()  # at max_engines: no change
        assert len(pool) == 3
        pool.start()
        pool.drain(timeout=10)
        assert all(pending.done() for pending in pendings)
        pool._consider_scaling()  # depth 0 <= 1
        pool._consider_scaling()
        assert len(pool) == 1  # back at min_engines
        assert cache.active_leases() == 1  # retired engines released
        pool._consider_scaling()  # at min_engines: no change
        assert len(pool) == 1
        actions = [event.action for event in pool.scale_events()]
        assert actions == ["up", "up", "down", "down"]
        stats = pool.stats
        assert stats.scale_ups == 2 and stats.scale_downs == 2
        assert stats.completed == 12  # retired engines' traffic still counts
        assert pool.peak_engines == 3
        pool.close(drain=True, timeout=10)
        assert cache.active_leases() == 0
        assert cache.stats.leases == cache.stats.releases == 3

    def test_retired_engines_drain_before_release(self, mlp_artifact):
        """A scale-down must never drop accepted work: the retired
        engine answers its queue before its lease is returned."""
        cache = ArtifactCache()
        # scale_down_depth must clear the victim's 3 still-queued
        # requests (mean depth (0 + 3) / 2 = 1.5 over 2 engines), or
        # the "down" decision races against the victim draining first.
        policy = AutoscalePolicy(
            min_engines=1, max_engines=2, scale_up_depth=4.0,
            scale_down_depth=1.6, **MANUAL
        )
        pool = leased_pool(
            mlp_artifact, cache, policy,
            batch_window_s=0.0, autostart=False,
        )
        first = [pool.submit(np.zeros((3, 8, 8))) for _ in range(4)]
        pool._consider_scaling()  # up to 2 engines (depth 4 >= 4.0)
        # Load the *newest* engine (the scale-down victim) directly.
        victim_engine = pool.engines[-1]
        queued = [victim_engine.submit(np.zeros((3, 8, 8))) for _ in range(3)]
        pool.start()
        for pending in first:
            pending.result(timeout=10)
        pool._consider_scaling()  # down: retires the newest engine
        assert len(pool) == 1
        assert all(pending.done() for pending in queued)  # drained, not dropped
        pool.close(drain=True, timeout=10)
        assert cache.active_leases() == 0

    def test_supervisor_scales_in_real_time(self, mlp_artifact):
        """End-to-end: the supervisor thread itself observes depth and
        scales up, with no manual driving."""
        cache = ArtifactCache()
        policy = AutoscalePolicy(
            min_engines=1, max_engines=2, scale_up_depth=3.0,
            scale_down_depth=0.5, cooldown_s=0.0, interval_s=0.005,
        )
        pool = leased_pool(
            mlp_artifact, cache, policy,
            batch_window_s=0.0, autostart=False,
        )
        # Queue work while the engines are stopped, then start only the
        # supervisor: depth stays high (nothing drains it) until the
        # supervisor observes it and scales up on its own.
        pendings = [pool.submit(np.zeros((3, 8, 8))) for _ in range(16)]
        pool._start_supervisor()
        deadline = time.monotonic() + 10
        while pool.stats.scale_ups == 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert pool.stats.scale_ups >= 1
        pool.start()
        for pending in pendings:
            pending.result(timeout=10)
        pool.close(drain=True, timeout=10)
        assert cache.active_leases() == 0
        assert cache.stats.leases == cache.stats.releases


class TestChaosKill:
    def test_killed_engine_is_replaced_and_requests_redispatched(
        self, mlp_artifact
    ):
        """The full resilience story: kill → death detected → lease
        released → replacement leased → orphans re-dispatched → every
        request completes bit-exact. Lease accounting balances."""
        cache = ArtifactCache()
        policy = AutoscalePolicy(min_engines=1, max_engines=2, **MANUAL)
        pool = leased_pool(
            mlp_artifact, cache, policy,
            batch_window_s=0.0, record_batches=True, autostart=False,
        )
        # The supervisor is inert: the dead engine stays in the rotation
        # with its requests stranded until the sweep below.
        inputs = np.random.default_rng(0).standard_normal((6, 3, 8, 8))
        pendings = strand_on_killed_engine(pool, inputs)
        pool._sweep_deaths()
        outputs = [pending.result(timeout=10) for pending in pendings]
        # Identity read after completion: the replacement answered.
        assert {pending.engine_index for pending in pendings} == {1}
        stats = pool.stats
        assert stats.engine_deaths == 1 and stats.redispatched == 6
        actions = [event.action for event in pool.scale_events()]
        assert actions == ["death", "replace"]
        fates = {
            record[0]: fate["fate"]
            for record, fate in zip(
                pool.engine_records(), pool.engine_lifetimes_s()
            )
        }
        assert fates[0] == "died"
        # Lease accounting: the dead engine's lease was released, the
        # replacement's is active.
        assert cache.stats.leases == 2
        assert cache.active_leases() == 1
        # Bit-exact parity of the rescued requests, via the recorded
        # batches of every engine the pool ever ran.
        class _PoolSession:  # verify_replay's minimal session surface
            input_dtype = pool.input_dtype
            engine_records = staticmethod(pool.engine_records)

        run = ReplayRun(
            payload={},
            outputs=np.stack(outputs),
            request_ids=[pending.request_id for pending in pendings],
            engine_indices=[pending.engine_index for pending in pendings],
        )
        assert verify_replay(_PoolSession(), inputs, run, expected=6) == 6
        pool.close(drain=True, timeout=10)
        assert cache.active_leases() == 0
        assert cache.stats.leases == cache.stats.releases == 2

    def test_orphans_fail_loudly_when_no_replacement_possible(
        self, mlp_artifact
    ):
        """If re-lease fails and no other engine is live, every orphan
        is answered with EngineDied — never silently dropped."""
        cache = ArtifactCache()
        policy = AutoscalePolicy(min_engines=1, max_engines=2, **MANUAL)
        pool = leased_pool(
            mlp_artifact, cache, policy, batch_window_s=0.0, autostart=False
        )
        pendings = strand_on_killed_engine(pool, [np.zeros((3, 8, 8))] * 3)

        def refusing_lease(source, backend="float"):
            raise RuntimeError("cache shut down")

        pool.placement.cache = type("C", (), {"lease": staticmethod(refusing_lease)})()
        with pytest.raises(RuntimeError, match="cache shut down"):
            pool._sweep_deaths()
        for pending in pendings:
            with pytest.raises(EngineDied, match="could not be re-dispatched"):
                pending.result(timeout=10)
        pool.placement.cache = cache
        pool.close(drain=True, timeout=10)
        assert cache.active_leases() == 0

    def test_drain_on_dead_engine_raises(self, mlp_artifact):
        cache = ArtifactCache()
        policy = AutoscalePolicy(min_engines=1, max_engines=2, **MANUAL)
        pool = leased_pool(
            mlp_artifact, cache, policy, batch_window_s=0.0, autostart=False
        )
        strand_on_killed_engine(pool, [np.zeros((3, 8, 8))])  # until the sweep
        with pytest.raises(EngineDied, match="never drain"):
            pool.drain(timeout=5)
        pool._sweep_deaths()
        pool.close(drain=True, timeout=10)
        assert cache.active_leases() == 0


class TestIntegerBackendPool:
    """The integer backend under autoscaling: scale-ups and chaos-kill
    replacements lease integer clones, and re-dispatched requests get
    integer answers bit-identical to an undisturbed integer engine's."""

    @pytest.fixture
    def act_artifact(self, quantized_mlp_factory):
        model, manifest = quantized_mlp_factory(act_bits=2)
        return compile_artifact(model, manifest)

    def test_scale_up_leases_integer_clones(self, act_artifact):
        from repro.serve import ServingPlan

        cache = ArtifactCache()
        policy = AutoscalePolicy(
            min_engines=1, max_engines=2, scale_up_depth=2.0,
            scale_down_depth=0.5, **MANUAL
        )
        pool = leased_pool(
            act_artifact, cache, policy,
            batch_window_s=0.0, autostart=False, backend="integer",
        )
        pendings = [pool.submit(np.zeros((3, 8, 8))) for _ in range(6)]
        pool._consider_scaling()  # depth 6 >= 2 -> scale up
        assert len(pool.engines) == 2
        records = pool.engine_records()
        assert all(
            isinstance(model, ServingPlan) and model.serving_backend == "integer" for _, _, model in records
        )
        # The scale-up clone shares the prototype's immutable codes.
        first, second = records[0][2], records[1][2]
        for name, spec in first.specs.items():
            assert second.specs[name].codes is spec.codes
        pool.start()
        for pending in pendings:
            pending.result(timeout=10)
        pool.close(drain=True, timeout=10)
        assert cache.active_leases() == 0

    def test_chaos_kill_redispatch_preserves_integer_results(
        self, act_artifact
    ):
        cache = ArtifactCache()
        policy = AutoscalePolicy(min_engines=1, max_engines=2, **MANUAL)
        pool = leased_pool(
            act_artifact, cache, policy, batch_window_s=0.0,
            record_batches=True, backend="integer", autostart=False,
        )
        inputs = np.random.default_rng(4).standard_normal((6, 3, 8, 8))
        pendings = strand_on_killed_engine(pool, inputs)
        pool._sweep_deaths()
        outputs = np.stack([pending.result(timeout=10) for pending in pendings])
        assert {pending.engine_index for pending in pendings} == {1}
        assert pool.stats.redispatched == 6
        # The replacement is an integer engine and its rescued answers
        # pass both verify_replay legs (bitwise self-parity + rescale
        # bound vs a float64 build of the artifact's float model).
        pool_artifact = act_artifact

        class _PoolSession:  # verify_replay's minimal session surface
            input_dtype = pool.input_dtype
            engine_records = staticmethod(pool.engine_records)
            artifact = pool_artifact

        run = ReplayRun(
            payload={},
            outputs=outputs,
            request_ids=[pending.request_id for pending in pendings],
            engine_indices=[pending.engine_index for pending in pendings],
        )
        assert verify_replay(_PoolSession(), inputs, run, expected=6) == 6
        # Bit-identical to an undisturbed single integer engine serving
        # the same batches.
        reference = act_artifact.clone_model_for("integer")
        from repro.tensor.tensor import Tensor, no_grad

        with no_grad():
            expected = reference(Tensor(np.asarray(inputs))).data
        for index in range(len(inputs)):
            np.testing.assert_allclose(
                outputs[index], expected[index], rtol=1e-9, atol=1e-12
            )
        pool.close(drain=True, timeout=10)
        assert cache.active_leases() == 0
        # Integer MACs actually ran on the replacement engine.
        assert pool.stats.acc_bits_used > 0


# ----------------------------------------------------------------------
# One chaos contract, three configurations
# ----------------------------------------------------------------------
#: The supervisor sweeps every 5 ms in each configuration; only the
#: autoscaled one may change the engine count.
CHAOS_CONFIGS = {
    "fixed-thread": ("thread", AutoscalePolicy(min_engines=2, max_engines=2, interval_s=0.005)),
    "autoscaled-thread": ("thread", AutoscalePolicy(min_engines=2, max_engines=3, interval_s=0.005)),
    "process": ("process", AutoscalePolicy(min_engines=2, max_engines=2, interval_s=0.005)),
}


class TestChaosContract:
    """Kill an engine holding requests: the supervisor replaces it and
    re-dispatches its orphans, every request answers bit-exact
    (``verify_replay(expected=N)``), the lease count returns to zero
    and a process segment's name no longer attaches after close()."""

    @pytest.mark.parametrize("name", sorted(CHAOS_CONFIGS))
    def test_zero_drop_recovery(self, mlp_artifact, name):
        from repro.serve import ProcessPlacement, SharedArtifactSegment

        kind, policy = CHAOS_CONFIGS[name]
        cache = ArtifactCache()
        placement_type = ProcessPlacement if kind == "process" else ThreadPlacement
        # Rows queued before start() are a backlog that dwells in the
        # engines' batching window, so the kill strands some of them.
        placement = placement_type(
            mlp_artifact, cache, ServeConfig(batch_window_s=0.25, record_batches=True)
        )
        pool = EnginePool(placement, policy, autostart=False)
        try:
            assert pool.supports_chaos
            inputs = np.random.default_rng(12).standard_normal((8, 3, 8, 8))
            pendings = [pool.submit(x) for x in inputs]
            pool.start()
            assert pool.chaos_kill(engine_index=0) == 0
            deadline = time.monotonic() + 10
            while pool.stats.engine_deaths < 1:
                assert time.monotonic() < deadline, "death not detected"
                time.sleep(0.005)
            run = ReplayRun(
                payload={},
                outputs=np.stack([p.result(timeout=30) for p in pendings]),
                request_ids=[p.request_id for p in pendings],
                engine_indices=[p.engine_index for p in pendings],
            )

            class _PoolSession:  # verify_replay's minimal session surface
                input_dtype = pool.input_dtype
                engine_records = staticmethod(pool.engine_records)

            assert verify_replay(_PoolSession(), inputs, run, expected=8) == 8
            stats = pool.stats
            assert stats.engine_deaths == 1 and stats.redispatched >= 1
            assert stats.completed == 8 and stats.errors == 0
            actions = [event.action for event in pool.scale_events()]
            assert actions[:2] == ["death", "replace"]
            assert len(pool) >= policy.min_engines
            assert cache.active_leases() == len(pool)
            scaling = pool.describe_scaling()
            assert scaling["placement"] == kind
            assert scaling["enabled"] == (policy.min_engines < policy.max_engines)
            assert scaling["engine_deaths"] == 1
        finally:
            pool.close(drain=True, timeout=30)
        assert cache.active_leases() == 0
        assert cache.stats.leases == cache.stats.releases
        if kind == "process":
            segment = placement.segment
            with pytest.raises(FileNotFoundError):
                SharedArtifactSegment.attach(segment.name, segment.nbytes)

    def test_bare_model_pool_cannot_chaos(self):
        pool = fixed_pool([make_toy_model()])
        try:
            assert not pool.supports_chaos
            with pytest.raises(RuntimeError, match="cannot replace"):
                pool.chaos_kill()
        finally:
            pool.close()
