"""Tests for repro.serve.trace: seeded arrival processes + batch mixes."""

import json

import numpy as np
import pytest

from repro.serve import TRACE_KINDS, TraceConfig, generate_trace


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown trace kind"):
            TraceConfig(kind="lumpy")

    def test_bad_rate(self):
        with pytest.raises(ValueError, match="rate_rps"):
            TraceConfig(rate_rps=0.0)

    def test_bad_requests(self):
        with pytest.raises(ValueError, match="at least one request"):
            TraceConfig(requests=0)

    def test_bad_batch_sizes(self):
        with pytest.raises(ValueError, match="batch_sizes"):
            TraceConfig(batch_sizes=(1, 0))

    def test_weights_must_match_sizes(self):
        with pytest.raises(ValueError, match="batch_weights"):
            TraceConfig(batch_sizes=(1, 4), batch_weights=(1.0,))

    def test_bad_duty_and_burst(self):
        with pytest.raises(ValueError, match="duty"):
            TraceConfig(kind="bursty", duty=1.5)
        with pytest.raises(ValueError, match="burst_factor"):
            TraceConfig(kind="bursty", burst_factor=0.5)

    def test_bad_amplitude(self):
        with pytest.raises(ValueError, match="amplitude"):
            TraceConfig(kind="diurnal", amplitude=1.0)


class TestDeterminism:
    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_same_seed_same_trace(self, kind):
        config = TraceConfig(
            kind=kind, requests=80, rate_rps=400.0, seed=7, batch_sizes=(1, 2, 4)
        )
        first = generate_trace(config)
        second = generate_trace(config)
        np.testing.assert_array_equal(first.arrivals_s, second.arrivals_s)
        np.testing.assert_array_equal(first.batch_sizes, second.batch_sizes)

    def test_different_seed_different_trace(self):
        base = dict(kind="poisson", requests=80, rate_rps=400.0)
        first = generate_trace(TraceConfig(seed=0, **base))
        second = generate_trace(TraceConfig(seed=1, **base))
        assert not np.array_equal(first.arrivals_s, second.arrivals_s)

    def test_payload_is_json_able_and_deterministic(self):
        config = TraceConfig(kind="bursty", requests=40, rate_rps=300.0, seed=3)
        first = json.dumps(
            generate_trace(config).to_payload(), sort_keys=True, allow_nan=False
        )
        second = json.dumps(
            generate_trace(config).to_payload(), sort_keys=True, allow_nan=False
        )
        assert first == second


class TestArrivalShapes:
    def test_uniform_is_evenly_spaced(self):
        trace = generate_trace(TraceConfig(kind="uniform", requests=10, rate_rps=100))
        np.testing.assert_allclose(np.diff(trace.arrivals_s), 0.01)

    @pytest.mark.parametrize("kind", TRACE_KINDS)
    def test_arrivals_start_at_zero_and_are_sorted(self, kind):
        trace = generate_trace(TraceConfig(kind=kind, requests=60, rate_rps=500, seed=2))
        assert trace.arrivals_s[0] == 0.0
        assert np.all(np.diff(trace.arrivals_s) >= 0)
        assert trace.requests == 60

    def test_poisson_mean_rate_roughly_honoured(self):
        trace = generate_trace(
            TraceConfig(kind="poisson", requests=400, rate_rps=1000.0, seed=0)
        )
        # 400 exponential(1ms) gaps: mean within a loose statistical band.
        assert 0.5 < trace.offered_rps / 1000.0 < 2.0

    def test_bursty_is_burstier_than_poisson(self):
        """The on-off trace's inter-arrival CV exceeds the Poisson CV
        (which is ~1): bursts pack arrivals, troughs stretch gaps."""
        n, rate = 400, 1000.0
        poisson = generate_trace(
            TraceConfig(kind="poisson", requests=n, rate_rps=rate, seed=5)
        )
        bursty = generate_trace(
            TraceConfig(
                kind="bursty", requests=n, rate_rps=rate, seed=5, burst_factor=8.0
            )
        )

        def cv(trace):
            gaps = np.diff(trace.arrivals_s)
            return gaps.std() / gaps.mean()

        assert cv(bursty) > cv(poisson)

    def test_diurnal_concentrates_arrivals_in_the_peak(self):
        """More arrivals land in the sinusoid's high half-period than
        the low one."""
        config = TraceConfig(
            kind="diurnal",
            requests=400,
            rate_rps=1000.0,
            seed=1,
            periods=1.0,
            amplitude=0.8,
        )
        trace = generate_trace(config)
        period = (config.requests / config.rate_rps) / config.periods
        phase = (trace.arrivals_s % period) / period
        peak_half = np.count_nonzero(phase < 0.5)  # sin > 0 half
        assert peak_half > 0.6 * trace.requests


class TestBacklog:
    def test_every_arrival_is_at_zero(self):
        trace = generate_trace(
            TraceConfig(kind="backlog", requests=5, batch_sizes=(1, 3), seed=4)
        )
        np.testing.assert_array_equal(trace.arrivals_s, np.zeros(5))
        assert trace.duration_s == 0.0
        assert "queued at t=0" in trace.describe()

    @pytest.mark.parametrize(
        "config",
        [TraceConfig(requests=1), TraceConfig(kind="backlog", requests=8)],
        ids=["single-request", "backlog"],
    )
    def test_zero_duration_payload_is_strict_json(self, config):
        """A trace whose arrivals share one instant has no finite rate:
        ``offered_rps`` is ``None`` (JSON null), never ``inf``."""
        payload = generate_trace(config).to_payload()
        assert payload["offered_rps"] is None
        json.dumps(payload, allow_nan=False)


class TestBatchMix:
    def test_single_size_is_constant(self):
        trace = generate_trace(TraceConfig(requests=20, batch_sizes=(3,)))
        assert trace.rows == 60
        assert set(trace.batch_sizes.tolist()) == {3}

    def test_mixed_sizes_drawn_from_the_set(self):
        trace = generate_trace(
            TraceConfig(
                kind="poisson",
                requests=200,
                seed=9,
                batch_sizes=(1, 4, 8),
                batch_weights=(8.0, 1.0, 1.0),
            )
        )
        seen = set(trace.batch_sizes.tolist())
        assert seen <= {1, 4, 8}
        assert len(seen) > 1
        # The heavily weighted size dominates.
        assert np.count_nonzero(trace.batch_sizes == 1) > 100
        assert trace.rows == int(trace.batch_sizes.sum())
