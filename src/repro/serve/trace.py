"""Seeded traffic traces: the arrival processes behind replay realism.

Real traffic bursts, follows daily cycles, and carries mixed batch
sizes — a serving claim that survives only uniform load is not a
deployment claim. This module models the load itself:

* :class:`TraceConfig` describes an arrival process — ``uniform``
  (evenly spaced), ``poisson`` (memoryless), ``bursty`` (on-off
  modulated Poisson: short windows at ``burst_factor`` times the mean
  rate separated by quiet troughs), ``diurnal`` (sinusoidally
  modulated Poisson — the day/night cycle compressed into the trace)
  or ``backlog`` (every request queued at t=0, the degenerate trace a
  closed-loop replay drives under a concurrency cap) — plus a mixed
  per-request batch-size distribution.
* :func:`generate_trace` expands it into a concrete
  :class:`TrafficTrace`: per-request arrival timestamps and batch
  sizes. Non-homogeneous processes are sampled by Lewis–Shedler
  thinning against the target intensity, so every kind shares one
  code path and one determinism story.

Determinism: all randomness flows through ``np.random.default_rng(seed)``
— the same config always expands to the identical trace, byte for
byte, so two replays of one config offer the identical load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

#: Arrival-process kinds accepted by :class:`TraceConfig`.
TRACE_KINDS = ("uniform", "poisson", "bursty", "diurnal", "backlog")


@dataclass(frozen=True)
class TraceConfig:
    """One traffic trace, fully described by JSON-able data.

    ``rate_rps`` is the *mean* arrival rate (unused by ``backlog``,
    whose arrivals are all at t=0); bursty/diurnal traces
    modulate around it (bursts run at ``burst_factor * rate_rps`` for
    ``duty`` of each period; the diurnal sinusoid swings by
    ``amplitude``). ``periods`` cycles are fit across the expected
    trace duration (``requests / rate_rps``). ``batch_sizes`` /
    ``batch_weights`` give the per-request batch-size mix — each
    request carries that many input rows, submitted back to back at
    its arrival instant.
    """

    kind: str = "uniform"
    requests: int = 64
    rate_rps: float = 200.0
    seed: int = 0
    batch_sizes: Tuple[int, ...] = (1,)
    batch_weights: Optional[Tuple[float, ...]] = None
    burst_factor: float = 8.0
    duty: float = 0.2
    periods: float = 2.0
    amplitude: float = 0.8

    def __post_init__(self):
        if self.kind not in TRACE_KINDS:
            raise ValueError(
                f"unknown trace kind {self.kind!r}; available: {TRACE_KINDS}"
            )
        if self.requests < 1:
            raise ValueError(f"a trace needs at least one request, got {self.requests}")
        if not (self.rate_rps > 0 and math.isfinite(self.rate_rps)):
            raise ValueError(f"rate_rps must be finite and > 0, got {self.rate_rps}")
        if not self.batch_sizes or any(int(b) < 1 for b in self.batch_sizes):
            raise ValueError(
                f"batch_sizes must be positive ints, got {self.batch_sizes}"
            )
        if self.batch_weights is not None:
            if len(self.batch_weights) != len(self.batch_sizes):
                raise ValueError(
                    f"batch_weights ({len(self.batch_weights)}) must match "
                    f"batch_sizes ({len(self.batch_sizes)})"
                )
            if any(w < 0 for w in self.batch_weights) or sum(self.batch_weights) <= 0:
                raise ValueError("batch_weights must be non-negative with a positive sum")
        if self.burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")
        if not (0.0 < self.duty < 1.0):
            raise ValueError(f"duty must be in (0, 1), got {self.duty}")
        if self.periods <= 0:
            raise ValueError(f"periods must be > 0, got {self.periods}")
        if not (0.0 <= self.amplitude < 1.0):
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form (the trace block of replay payloads)."""
        return {
            "kind": self.kind,
            "requests": int(self.requests),
            "rate_rps": float(self.rate_rps),
            "seed": int(self.seed),
            "batch_sizes": [int(b) for b in self.batch_sizes],
            "batch_weights": (
                None
                if self.batch_weights is None
                else [float(w) for w in self.batch_weights]
            ),
            "burst_factor": float(self.burst_factor),
            "duty": float(self.duty),
            "periods": float(self.periods),
            "amplitude": float(self.amplitude),
        }


@dataclass(frozen=True)
class TrafficTrace:
    """A concrete trace: per-request arrival offsets and batch sizes.

    ``arrivals_s`` is non-decreasing, offset from the replay start;
    ``batch_sizes[i]`` rows are dispatched back to back at
    ``arrivals_s[i]``. Both arrays are fully determined by the config's
    seed.
    """

    config: TraceConfig
    arrivals_s: np.ndarray = field(repr=False)
    batch_sizes: np.ndarray = field(repr=False)

    @property
    def requests(self) -> int:
        return len(self.arrivals_s)

    @property
    def rows(self) -> int:
        """Total input rows across all requests."""
        return int(self.batch_sizes.sum())

    @property
    def duration_s(self) -> float:
        """Offset of the last arrival (the trace's offered span)."""
        return float(self.arrivals_s[-1])

    @property
    def offered_rps(self) -> Optional[float]:
        """Realised mean request rate of this expansion; ``None`` when
        every arrival shares one instant (no finite rate exists)."""
        if self.duration_s <= 0:
            return None
        return float((self.requests - 1) / self.duration_s)

    def to_payload(self) -> Dict[str, object]:
        """Deterministic JSON-able summary for replay payloads."""
        document = self.config.to_dict()
        document.update(
            {
                "rows": self.rows,
                "duration_s": float(self.duration_s),
                "offered_rps": self.offered_rps,
                "mean_batch_rows": float(self.batch_sizes.mean()),
            }
        )
        return document

    def describe(self) -> str:
        if self.config.kind == "backlog":
            return (
                f"backlog trace: {self.requests} requests ({self.rows} rows) "
                f"queued at t=0, seed {self.config.seed}"
            )
        return (
            f"{self.config.kind} trace: {self.requests} requests "
            f"({self.rows} rows) over {self.duration_s:.3f} s "
            f"@ {self.config.rate_rps:g} rps mean, seed {self.config.seed}"
        )


def _intensity(config: TraceConfig, period_s: float, t: np.ndarray) -> np.ndarray:
    """The target arrival intensity λ(t) of a modulated process."""
    rate = config.rate_rps
    if config.kind == "bursty":
        # On-off square wave: bursts at burst_factor * rate for `duty`
        # of each period; the trough rate keeps the overall mean at
        # `rate` where the geometry allows (clamped at zero otherwise).
        on = (np.asarray(t) % period_s) < (config.duty * period_s)
        rate_on = config.burst_factor * rate
        rate_off = max(
            rate * (1.0 - config.duty * config.burst_factor) / (1.0 - config.duty),
            0.0,
        )
        return np.where(on, rate_on, rate_off)
    if config.kind == "diurnal":
        phase = 2.0 * math.pi * np.asarray(t) / period_s
        return rate * (1.0 + config.amplitude * np.sin(phase))
    raise ValueError(f"no intensity function for kind {config.kind!r}")


def _peak_intensity(config: TraceConfig) -> float:
    if config.kind == "bursty":
        return config.burst_factor * config.rate_rps
    return (1.0 + config.amplitude) * config.rate_rps


def generate_trace(config: TraceConfig) -> TrafficTrace:
    """Expand a :class:`TraceConfig` into a concrete trace.

    Uniform and Poisson arrivals are sampled directly; bursty and
    diurnal arrivals by Lewis–Shedler thinning against the modulated
    intensity (candidates from a homogeneous Poisson at the peak rate,
    accepted with probability ``λ(t) / λ_max``), which keeps every
    non-homogeneous process on one exact, seed-deterministic path.
    """
    rng = np.random.default_rng(config.seed)
    n = config.requests
    if config.kind == "backlog":
        arrivals = np.zeros(n, dtype=np.float64)
    elif config.kind == "uniform":
        arrivals = np.arange(n, dtype=np.float64) / config.rate_rps
    elif config.kind == "poisson":
        arrivals = np.cumsum(rng.exponential(1.0 / config.rate_rps, size=n))
    else:
        period_s = max((n / config.rate_rps) / config.periods, 1e-9)
        lam_max = _peak_intensity(config)
        accepted = np.empty(n, dtype=np.float64)
        count = 0
        t = 0.0
        while count < n:
            # Draw candidate gaps in blocks; thin against λ(t)/λ_max.
            gaps = rng.exponential(1.0 / lam_max, size=max(64, n))
            times = t + np.cumsum(gaps)
            keep = rng.uniform(size=len(times)) * lam_max <= _intensity(
                config, period_s, times
            )
            kept = times[keep]
            take = min(len(kept), n - count)
            accepted[count : count + take] = kept[:take]
            count += take
            t = float(times[-1])
        arrivals = accepted
    arrivals = arrivals - arrivals[0]  # replay starts at the first arrival

    if len(config.batch_sizes) == 1:
        batch_sizes = np.full(n, int(config.batch_sizes[0]), dtype=np.int64)
    else:
        weights = config.batch_weights
        p = None
        if weights is not None:
            p = np.asarray(weights, dtype=np.float64)
            p = p / p.sum()
        batch_sizes = rng.choice(
            np.asarray(config.batch_sizes, dtype=np.int64), size=n, p=p
        )
    return TrafficTrace(config=config, arrivals_s=arrivals, batch_sizes=batch_sizes)
