"""Tests for repro.serve.engine: micro-batching, stats, lifecycle."""

import threading
import time
from collections import deque

import numpy as np
import pytest

from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.serve import (
    EngineClosed,
    InferenceEngine,
    QueueFull,
    RequestCancelled,
    ShutdownTimeout,
    combine_serve_stats,
)
from repro.serve.engine import _collect_batches
from repro.tensor.tensor import Tensor


def make_toy_model(in_features: int = 3, out_features: int = 2) -> Module:
    """A deterministic linear map so outputs identify their inputs."""
    model = Linear(in_features, out_features, rng=np.random.default_rng(0))
    model.weight.data[...] = np.arange(
        out_features * in_features, dtype=np.float64
    ).reshape(out_features, in_features)
    model.bias.data[...] = 0.0
    return model


def expected_output(model: Module, x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64) @ model.weight.data.T


class FailingModel(Module):
    def forward(self, x):
        raise RuntimeError("kaboom")


class SlowModel(Module):
    """A forward slow enough to outlive a short close() timeout."""

    def __init__(self, delay_s: float = 0.4):
        super().__init__()
        self.delay_s = delay_s

    def forward(self, x):
        time.sleep(self.delay_s)
        return x


class TestBasicServing:
    def test_predict_returns_model_output(self):
        model = make_toy_model()
        with InferenceEngine(model) as engine:
            x = np.array([1.0, 2.0, 3.0])
            np.testing.assert_array_equal(engine.predict(x), expected_output(model, x))

    def test_results_map_to_their_requests(self):
        model = make_toy_model()
        inputs = np.arange(30, dtype=np.float64).reshape(10, 3)
        with InferenceEngine(model, batch_window_s=0.02, max_batch_size=4) as engine:
            pendings = [engine.submit(x) for x in inputs]
            for x, pending in zip(inputs, pendings):
                np.testing.assert_array_equal(
                    pending.result(timeout=10), expected_output(model, x)
                )

    def test_concurrent_clients_all_answered(self):
        model = make_toy_model()
        inputs = np.arange(60, dtype=np.float64).reshape(20, 3)
        results = [None] * len(inputs)

        with InferenceEngine(model, batch_window_s=0.005, max_batch_size=8) as engine:

            def client(offset):
                for index in range(offset, len(inputs), 4):
                    results[index] = engine.predict(inputs[index], timeout=10)

            threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for x, result in zip(inputs, results):
            np.testing.assert_array_equal(result, expected_output(model, x))


class TestMicroBatching:
    def test_queued_requests_coalesce_deterministically(self):
        # autostart=False: everything queues, then one start() drains it
        # with full batches — deterministic composition.
        model = make_toy_model()
        engine = InferenceEngine(
            model, batch_window_s=0.0, max_batch_size=4,
            record_batches=True, autostart=False,
        )
        inputs = np.arange(30, dtype=np.float64).reshape(10, 3)
        pendings = [engine.submit(x) for x in inputs]
        engine.start()
        engine.drain(timeout=10)
        stats = engine.stats
        assert stats.forwards == 3  # 4 + 4 + 2
        assert [len(batch) for batch in engine.executed_batches()] == [4, 4, 2]
        assert stats.coalesced_forwards == 3
        assert stats.batched_requests == 10
        assert stats.max_batch_seen == 4
        for x, pending in zip(inputs, pendings):
            np.testing.assert_array_equal(pending.result(), expected_output(model, x))
        engine.close()

    def test_max_batch_one_is_sequential(self):
        model = make_toy_model()
        engine = InferenceEngine(
            model, batch_window_s=0.0, max_batch_size=1,
            record_batches=True, autostart=False,
        )
        for x in np.arange(12, dtype=np.float64).reshape(4, 3):
            engine.submit(x)
        engine.start()
        engine.drain(timeout=10)
        stats = engine.stats
        assert stats.forwards == 4
        assert stats.coalesced_forwards == 0
        assert stats.mean_batch_size == 1.0
        engine.close()

    def test_window_coalesces_sparse_arrivals(self):
        # A generous window lets requests submitted after the worker
        # opened a batch still join it.
        model = make_toy_model()
        with InferenceEngine(
            model, batch_window_s=0.25, max_batch_size=8, record_batches=True
        ) as engine:
            pendings = [
                engine.submit(x)
                for x in np.arange(24, dtype=np.float64).reshape(8, 3)
            ]
            for pending in pendings:
                pending.result(timeout=10)
            stats = engine.stats
        assert stats.forwards < 8  # strictly better than sequential
        assert stats.coalesced_forwards >= 1

    def test_stats_accounting_identities(self):
        model = make_toy_model()
        engine = InferenceEngine(
            model, batch_window_s=0.0, max_batch_size=3,
            record_batches=True, autostart=False,
        )
        inputs = np.arange(21, dtype=np.float64).reshape(7, 3)
        pendings = [engine.submit(x) for x in inputs]
        engine.start()
        engine.drain(timeout=10)
        stats = engine.stats
        # Every request is served by exactly one executed batch.
        assert sum(len(batch) for batch in engine.executed_batches()) == stats.served
        assert stats.requests == stats.completed + stats.errors + stats.cancelled
        assert stats.completed == len(stats.latencies_s)
        assert stats.mean_batch_size == pytest.approx(stats.served / stats.forwards)
        assert all(pending.latency_s >= 0 for pending in pendings)
        assert stats.max_latency_s >= stats.mean_latency_s > 0
        assert stats.latency_percentile(95) <= stats.max_latency_s
        engine.close()

    def test_snapshot_is_decoupled(self):
        model = make_toy_model()
        with InferenceEngine(model) as engine:
            engine.predict(np.ones(3))
            snapshot = engine.stats
            engine.predict(np.ones(3))
            assert snapshot.requests == 1
            assert engine.stats.requests == 2

    def test_record_batches_off_by_default(self):
        with InferenceEngine(make_toy_model()) as engine:
            with pytest.raises(RuntimeError, match="record_batches"):
                engine.executed_batches()


class VirtualSource:
    """A row source for ``_collect_batches`` on a virtual clock, the way
    the autoscaler's tests drive ``observe(now_s=...)``.

    Row ``rid`` becomes ready at its scheduled time; a close begins at
    ``close_at``; each forward takes ``forward_s`` of virtual time, and
    its rows are answered at the end of it. ``wait`` jumps the clock to
    the next arrival, close or deadline; with none left, it stops the
    run. ``follow_up`` lets a closed-loop client send its next row the
    moment its answer arrives.
    """

    def __init__(self, arrivals, close_at=None, forward_s=1.0, follow_up=None):
        self.now = 0.0
        self.pending = sorted((t, rid) for rid, t in arrivals.items())
        self.ready = deque()
        self.close_at = close_at
        self.forward_s = forward_s
        self.follow_up = follow_up
        self.batches = []  # (virtual start time, rids), one per forward
        self.answered = []

    def clock(self):
        return self.now

    def closed(self):
        return self.close_at is not None and self.now >= self.close_at

    def take(self):
        while self.pending and self.pending[0][0] <= self.now:
            self.ready.append(self.pending.pop(0)[1])
        if not self.ready:
            return None
        rid = self.ready.popleft()
        return rid, np.full(2, float(rid))

    def wait(self, deadline):
        """Stop once a close has begun and left no row to take."""
        events = [t for t in (deadline, self.close_at) if t is not None]
        events += [t for t, _rid in self.pending[:1]]
        if not self.closed() and events:
            self.now = max(self.now, min(events))
        has_rows = self.ready or (self.pending and self.pending[0][0] <= self.now)
        return not has_rows and (self.closed() or not events)

    def __call__(self, inputs):  # the model
        self.batches.append((self.now, [int(row[0]) for row in inputs.data]))
        self.now += self.forward_s
        return inputs

    def answer(self, rids, outputs, error, service_s, acc_bits):
        assert error is None
        self.answered += rids
        for rid in rids:
            if self.follow_up is not None and self.follow_up(rid) is not None:
                self.pending.append((self.now, self.follow_up(rid)))
                self.pending.sort()

    def run(self, batch_window_s, max_batch_size=4, backlog=False):
        _collect_batches(
            self.take, self.wait, self.answer, self, batch_window_s,
            max_batch_size, backlog, clock=self.clock,
        )
        return self.batches


class TestBatchingRule:
    """The one batching rule, clause by clause, with no threads and no
    wall clock: batches are ``(virtual start time, rids)``."""

    def test_idle_worker_runs_a_row_at_once(self):
        assert VirtualSource({0: 0.0}).run(batch_window_s=5.0) == [(0.0, [0])]

    def test_idle_worker_takes_the_rows_already_ready(self):
        source = VirtualSource({0: 0.0, 1: 0.0, 2: 0.0, 3: 0.2})
        assert source.run(batch_window_s=5.0) == [(0.0, [0, 1, 2]), (6.0, [3])]

    def test_closed_loop_follow_ups_never_wait(self):
        """A client's next row, sent on its answer, reaches an idle
        worker: the backlog is read before the answer goes out."""
        source = VirtualSource({0: 0.0}, follow_up=lambda rid: rid + 1 if rid < 3 else None)
        assert source.run(batch_window_s=5.0) == [
            (0.0, [0]), (1.0, [1]), (2.0, [2]), (3.0, [3])
        ]
        assert source.answered == [0, 1, 2, 3]

    def test_backlog_waits_up_to_the_window(self):
        """Rows that queue during a forward wait up to the window for
        more; a row after the deadline opens the next batch."""
        source = VirtualSource({0: 0.0, 1: 0.5, 2: 1.2, 3: 1.7})
        assert source.run(batch_window_s=0.5) == [
            (0.0, [0]), (1.5, [1, 2]), (3.0, [3])
        ]

    def test_a_full_batch_never_waits(self):
        source = VirtualSource({0: 0.0, 1: 0.5, 2: 0.5, 3: 0.5})
        assert source.run(batch_window_s=10.0, max_batch_size=2) == [
            (0.0, [0]), (1.0, [1, 2]), (12.0, [3])
        ]

    def test_received_rows_join_up_to_the_cap(self):
        """With no window at all, rows already received still fill
        batches up to ``max_batch_size``."""
        source = VirtualSource({rid: 0.0 for rid in range(10)})
        assert source.run(batch_window_s=0.0) == [
            (0.0, [0, 1, 2, 3]), (1.0, [4, 5, 6, 7]), (2.0, [8, 9])
        ]

    def test_rows_held_until_start_are_a_backlog(self):
        arrivals = {0: 0.0, 1: 0.0, 2: 0.3}
        held = VirtualSource(arrivals).run(batch_window_s=0.5, backlog=True)
        assert held == [(0.5, [0, 1, 2])]
        live = VirtualSource(arrivals).run(batch_window_s=0.5)
        assert live == [(0.0, [0, 1]), (1.5, [2])]

    def test_a_close_answers_the_rows_before_it(self):
        """A close ends the open batch without waiting out the window,
        answers every row that came before it, and then stops."""
        arrivals = {rid: 0.0 for rid in range(5)}
        arrivals[5] = 5.0  # after the close: never taken
        source = VirtualSource(arrivals, close_at=0.5)
        assert source.run(batch_window_s=10.0, max_batch_size=2) == [
            (0.0, [0, 1]), (1.0, [2, 3]), (2.0, [4])
        ]
        assert source.answered == [0, 1, 2, 3, 4]

    def test_rows_arriving_with_the_close_are_answered(self):
        source = VirtualSource({0: 1.0, 1: 1.0}, close_at=1.0)
        assert source.run(batch_window_s=10.0) == [(1.0, [0, 1])]

    def test_a_close_cuts_the_window_short(self):
        source = VirtualSource({0: 0.0, 1: 0.0}, close_at=2.0)
        assert source.run(batch_window_s=10.0, backlog=True) == [(2.0, [0, 1])]


class TestErrorsAndLifecycle:
    def test_forward_error_propagates_and_engine_survives(self):
        failing = FailingModel()
        with InferenceEngine(failing, max_batch_size=2) as engine:
            pending = engine.submit(np.ones(3))
            with pytest.raises(RuntimeError, match="kaboom"):
                pending.result(timeout=10)
            assert engine.stats.errors == 1

    def test_bad_shape_poisons_only_its_batch(self):
        model = make_toy_model()
        engine = InferenceEngine(
            model, batch_window_s=0.0, max_batch_size=8, autostart=False
        )
        good = engine.submit(np.ones(3))
        bad = engine.submit(np.ones(5))  # np.stack raises on ragged shapes
        engine.start()
        engine.drain(timeout=10)
        with pytest.raises(ValueError):
            bad.result(timeout=10)
        with pytest.raises(ValueError):
            good.result(timeout=10)  # same batch, same failure
        # The engine keeps serving afterwards.
        np.testing.assert_array_equal(
            engine.predict(np.ones(3), timeout=10),
            expected_output(model, np.ones(3)),
        )
        engine.close()

    def test_close_drains_pending_requests(self):
        model = make_toy_model()
        engine = InferenceEngine(
            model, batch_window_s=0.0, max_batch_size=4, autostart=False
        )
        pendings = [engine.submit(np.full(3, i)) for i in range(6)]
        engine.start()
        engine.close(drain=True, timeout=10)
        for i, pending in enumerate(pendings):
            np.testing.assert_array_equal(
                pending.result(timeout=1), expected_output(model, np.full(3, i))
            )

    def test_close_without_drain_cancels(self):
        model = make_toy_model()
        engine = InferenceEngine(model, autostart=False)
        pending = engine.submit(np.ones(3))
        engine.close(drain=False)
        with pytest.raises(RequestCancelled):
            pending.result(timeout=1)
        assert engine.stats.cancelled == 1

    def test_close_unstarted_engine_drains_inline(self):
        model = make_toy_model()
        engine = InferenceEngine(
            model, batch_window_s=0.0, max_batch_size=4, autostart=False
        )
        pendings = [engine.submit(np.full(3, i)) for i in range(5)]
        engine.close(drain=True)
        for i, pending in enumerate(pendings):
            np.testing.assert_array_equal(
                pending.result(timeout=1), expected_output(model, np.full(3, i))
            )

    def test_submit_after_close_raises(self):
        engine = InferenceEngine(make_toy_model())
        engine.close()
        with pytest.raises(EngineClosed):
            engine.submit(np.ones(3))
        with pytest.raises(EngineClosed):
            engine.start()

    def test_close_is_idempotent(self):
        engine = InferenceEngine(make_toy_model())
        engine.close()
        engine.close()

    def test_drain_on_unstarted_engine_raises(self):
        engine = InferenceEngine(make_toy_model(), autostart=False)
        engine.submit(np.ones(3))
        with pytest.raises(RuntimeError, match="never started"):
            engine.drain(timeout=1)
        engine.close()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            InferenceEngine(make_toy_model(), max_batch_size=0)
        with pytest.raises(ValueError):
            InferenceEngine(make_toy_model(), batch_window_s=-1.0)

    def test_result_timeout(self):
        engine = InferenceEngine(make_toy_model(), autostart=False)
        pending = engine.submit(np.ones(3))
        with pytest.raises(TimeoutError):
            pending.result(timeout=0.01)
        engine.close(drain=False)

    def test_close_timeout_raises_while_worker_still_runs(self):
        """close(timeout) must not report success while the worker is
        alive — callers would tear down state under a running thread."""
        engine = InferenceEngine(SlowModel(delay_s=0.4), batch_window_s=0.0)
        pending = engine.submit(np.ones(3))
        with pytest.raises(ShutdownTimeout, match="still running"):
            engine.close(drain=True, timeout=0.02)
        # The engine was NOT closed: the request still completes, and a
        # patient close() succeeds.
        np.testing.assert_array_equal(pending.result(timeout=10), np.ones(3))
        engine.close(drain=True, timeout=10)
        assert engine.stats.completed == 1

    def test_close_with_generous_timeout_succeeds(self):
        engine = InferenceEngine(make_toy_model())
        engine.predict(np.ones(3))
        engine.close(timeout=10)  # no raise


class TestAdmission:
    """Bounded admission: max_pending sheds load instead of growing."""

    def test_submit_beyond_budget_sheds(self):
        model = make_toy_model()
        engine = InferenceEngine(model, autostart=False, max_pending=2)
        admitted = [engine.submit(np.ones(3)) for _ in range(2)]
        with pytest.raises(QueueFull, match="max_pending=2"):
            engine.submit(np.ones(3))
        stats = engine.stats
        assert stats.requests == 2  # the shed submit is not a request
        assert stats.rejected == 1
        # Draining the backlog restores the admission budget.
        engine.start()
        engine.drain(timeout=10)
        recovered = engine.submit(np.ones(3))
        np.testing.assert_array_equal(
            recovered.result(timeout=10), expected_output(model, np.ones(3))
        )
        engine.close(timeout=10)
        assert all(pending.done() for pending in admitted)
        assert engine.stats.requests == 3 and engine.stats.rejected == 1

    def test_in_flight_work_counts_against_budget(self):
        """The budget covers admitted-but-unanswered work, not just the
        queue — otherwise a slow forward would hide unbounded growth."""
        engine = InferenceEngine(
            SlowModel(delay_s=0.3), batch_window_s=0.0, max_batch_size=1,
            max_pending=1,
        )
        pending = engine.submit(np.ones(3))
        deadline = time.monotonic() + 5.0
        saw_inflight_rejection = False
        while time.monotonic() < deadline:
            with engine._cond:  # outstanding, but popped off the queue
                in_flight = len(engine._outstanding) - len(engine._queue)
            if in_flight:
                # The queue is empty (the worker popped the request) but
                # the budget is still spent until the answer lands.
                with pytest.raises(QueueFull):
                    engine.submit(np.ones(3))
                saw_inflight_rejection = True
                break
            time.sleep(0.005)
        assert saw_inflight_rejection
        np.testing.assert_array_equal(pending.result(timeout=10), np.ones(3))
        engine.close(timeout=10)

    def test_rejected_merges_and_summarizes(self):
        engine = InferenceEngine(make_toy_model(), autostart=False, max_pending=1)
        engine.submit(np.ones(3))
        with pytest.raises(QueueFull):
            engine.submit(np.ones(3))
        merged = combine_serve_stats([engine.stats, engine.stats])
        assert merged.rejected == 2
        assert "shed at admission" in engine.stats.summary()
        engine.close(drain=False)

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_pending"):
            InferenceEngine(make_toy_model(), autostart=False, max_pending=0)

    def test_unbounded_by_default(self):
        engine = InferenceEngine(make_toy_model(), autostart=False)
        for _ in range(64):
            engine.submit(np.ones(3))
        assert engine.stats.rejected == 0
        engine.close(drain=False)


class TestInputDtype:
    def test_dtype_follows_model_parameters(self):
        model = make_toy_model()
        with InferenceEngine(model) as engine:
            assert engine.input_dtype == np.float64
            assert engine.predict(np.ones(3, dtype=np.float32)).dtype == np.float64

    def test_float32_model_serves_float32_without_upcast(self):
        model = make_toy_model()
        model.weight.data = model.weight.data.astype(np.float32)
        model.bias.data = model.bias.data.astype(np.float32)
        with InferenceEngine(model, batch_window_s=0.0) as engine:
            assert engine.input_dtype == np.float32
            x = np.arange(3, dtype=np.float64)
            got = engine.predict(x, timeout=10)
            # The engine computed in the model's dtype (no silent
            # float64 upcast) and matches the direct float32 forward.
            assert got.dtype == np.float32
            expected = x.astype(np.float32) @ model.weight.data.T + model.bias.data
            np.testing.assert_array_equal(got, expected)

    def test_parameter_free_model_defaults_to_float64(self):
        with InferenceEngine(FailingModel(), autostart=False) as engine:
            assert engine.input_dtype == np.float64

    def test_model_with_disagreeing_parameter_dtypes_is_refused(self):
        from repro.nn.layers import ReLU
        from repro.nn.module import Sequential

        rng = np.random.default_rng(0)
        model = Sequential(Linear(3, 4, rng=rng), ReLU(), Linear(4, 2, rng=rng))
        model.astype(np.float32)
        model[2].astype(np.float64)  # one float64 layer in a float32 model
        with pytest.raises(ValueError, match=r"'2\.weight' is float64 but '0\.weight' is float32"):
            InferenceEngine(model, autostart=False)


class TestCombinedStats:
    def test_combine_sums_counters_and_maxes_high_water_marks(self):
        model = make_toy_model()
        engines = [
            InferenceEngine(
                model if index == 0 else make_toy_model(),
                batch_window_s=0.0,
                max_batch_size=2,
                autostart=False,
            )
            for index in range(2)
        ]
        for index, engine in enumerate(engines):
            for _ in range(2 + index):
                engine.submit(np.ones(3))
            engine.start()
            engine.drain(timeout=10)
        snapshots = [engine.stats for engine in engines]
        merged = combine_serve_stats(snapshots)
        assert merged.requests == sum(s.requests for s in snapshots) == 5
        assert merged.completed == 5
        assert merged.forwards == sum(s.forwards for s in snapshots)
        assert merged.max_batch_seen == max(s.max_batch_seen for s in snapshots)
        assert merged.max_queue_depth == max(s.max_queue_depth for s in snapshots)
        assert merged.total_latency_s == pytest.approx(
            sum(s.total_latency_s for s in snapshots)
        )
        assert len(merged.latencies_s) == 5
        for engine in engines:
            engine.close()

    def test_latency_window_keeps_samples_from_every_engine(self):
        """Merging full windows must not let the last engine displace
        the others — each engine keeps an even share of the merged
        percentile window."""
        from repro.serve.engine import LATENCY_WINDOW, ServeStats

        slow = ServeStats()
        slow.latencies_s.extend([1.0] * LATENCY_WINDOW)
        fast = ServeStats()
        fast.latencies_s.extend([0.001] * LATENCY_WINDOW)
        merged = combine_serve_stats([slow, fast])
        samples = list(merged.latencies_s)
        assert samples.count(1.0) == LATENCY_WINDOW // 2
        assert samples.count(0.001) == LATENCY_WINDOW // 2
        # The slow engine is visible in the merged percentiles.
        assert merged.latency_percentile(75) == 1.0

    def test_artifact_annotation_rides_along(self):
        with InferenceEngine(make_toy_model()) as engine:
            engine.annotate_artifact(100, 60, 40)
            stats = engine.stats
        assert (stats.artifact_nbytes, stats.payload_nbytes, stats.sidecar_nbytes) == (
            100, 60, 40,
        )
        assert "artifact: 100 bytes (payload 60, sidecar 40)" in stats.summary()
        merged = combine_serve_stats([stats, stats])
        assert merged.artifact_nbytes == 100  # max, not sum


class TestParityReplay:
    def test_every_batch_is_bit_exact_with_a_direct_forward(self):
        from repro.tensor.tensor import no_grad

        model = make_toy_model()
        engine = InferenceEngine(
            model, batch_window_s=0.0, max_batch_size=4,
            record_batches=True, autostart=False,
        )
        inputs = np.random.default_rng(7).standard_normal((11, 3))
        pendings = [engine.submit(x) for x in inputs]
        engine.start()
        engine.drain(timeout=10)
        outputs = {p.request_id: p.result() for p in pendings}
        ids = [p.request_id for p in pendings]
        for batch in engine.executed_batches():
            rows = [ids.index(rid) for rid in batch]
            with no_grad():
                reference = model(Tensor(np.stack([inputs[r] for r in rows]))).data
            for position, rid in enumerate(batch):
                np.testing.assert_array_equal(outputs[rid], reference[position])
        engine.close()


class TestChaosPrimitives:
    """The engine-level building blocks the autoscaling pool's death
    handling relies on: kill(), worker_died, take_orphans(), adopt()."""

    def wait_for_death(self, engine, timeout_s: float = 5.0) -> None:
        deadline = time.monotonic() + timeout_s
        while not engine.worker_died:
            if time.monotonic() > deadline:
                raise AssertionError("killed worker did not die in time")
            time.sleep(0.005)

    def kill_with_rows(self, rows, model=None):
        """A dead engine stranding ``rows``: they are queued before the
        worker starts, so it finds a backlog and holds it in a long
        batch window, and the kill lands there, before any forward
        runs."""
        engine = InferenceEngine(
            model or make_toy_model(),
            batch_window_s=10.0,
            max_batch_size=16,
            autostart=False,
        )
        pendings = [engine.submit(x) for x in rows]
        engine.start()
        engine.kill()
        self.wait_for_death(engine)
        return engine, pendings

    def test_kill_before_start_raises(self):
        engine = InferenceEngine(make_toy_model(), autostart=False)
        with pytest.raises(EngineClosed):
            engine.kill()
        engine.close()

    def test_kill_flags_worker_died_even_when_idle(self):
        engine = InferenceEngine(make_toy_model())
        assert not engine.worker_died
        engine.kill()
        self.wait_for_death(engine)

    def test_drain_on_dead_engine_raises(self):
        from repro.serve import EngineDied

        idle = InferenceEngine(make_toy_model())
        idle.kill()
        self.wait_for_death(idle)
        idle.drain(timeout=10)  # nothing outstanding: trivially drained
        idle.close()
        engine, (pending,) = self.kill_with_rows([np.zeros(3)])
        with pytest.raises(EngineDied, match="never drain"):
            engine.drain(timeout=10)
        engine.close()
        with pytest.raises(EngineDied):
            pending.result(timeout=10)

    def test_take_orphans_returns_unanswered_queue(self):
        engine, pendings = self.kill_with_rows([np.zeros(3)] * 4)
        # A dead engine turns new work away; what it held stays put.
        with pytest.raises(EngineClosed):
            engine.submit(np.zeros(3))
        assert engine.queue_depth == 4
        orphans = engine.take_orphans()
        assert len(orphans) == 4
        assert {o.pending for o in orphans} == set(pendings)
        assert engine.queue_depth == 0
        # The orphans were subtracted: whoever adopts them re-counts.
        assert engine.stats.requests == 0
        assert engine.take_orphans() == []  # idempotent
        engine.close()

    def test_adopt_remaps_request_identity(self):
        model = make_toy_model()
        x = np.array([1.0, 2.0, 3.0])
        dead, (pending,) = self.kill_with_rows([x], model)
        (orphan,) = dead.take_orphans()
        with InferenceEngine(model) as rescue:
            filler = rescue.submit(np.zeros(3))  # desynchronise the rid counters
            filler.result(timeout=10)
            rescue.adopt(orphan)
            np.testing.assert_array_equal(
                pending.result(timeout=10), expected_output(model, x)
            )
            # The adopted request carries the rescuer's engine-local id,
            # so recorded batches resolve it correctly.
            assert pending.request_id == orphan.rid
            assert rescue.stats.completed == 2
        dead.close()

    def test_close_answers_orphans_loudly(self):
        from repro.serve import EngineDied

        engine, (pending,) = self.kill_with_rows([np.zeros(3)])
        engine.close()
        with pytest.raises(EngineDied, match="died before answering"):
            pending.result(timeout=10)
        stats = engine.stats
        assert stats.errors == 1
        assert stats.requests == 1

    def test_service_time_is_within_latency(self):
        engine = InferenceEngine(SlowModel(delay_s=0.05))
        pending = engine.submit(np.zeros(3))
        pending.result(timeout=10)
        assert pending.service_s is not None
        assert 0.0 < pending.service_s <= pending.latency_s
        engine.close()
