"""Hardware cost reporting for bit-width arrangements.

Combines :mod:`repro.hw.profile`, :mod:`repro.hw.energy` and
:mod:`repro.hw.latency` into one cost sheet for a quantized model, and
renders side-by-side comparisons of arrangements (e.g. CQ's skewed
per-filter map versus a uniform map at the same average bit-width).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.analysis.render import ascii_table
from repro.hw.energy import EnergyModel
from repro.hw.latency import LatencyModel
from repro.hw.pareto import DesignPoint, hypervolume_2d, knee_point, pareto_front
from repro.hw.profile import ModelProfile
from repro.quant.bitmap import BitWidthMap


@dataclass(frozen=True)
class CostSummary:
    """Model-level cost of one arrangement, with its FP32 reference."""

    label: str
    average_bits: float
    storage_kib: float  #: quantized-layer weight payload
    energy_uj: float
    latency_us: float
    fp32_storage_kib: float
    fp32_energy_uj: float
    fp32_latency_us: float

    @property
    def compression(self) -> float:
        """FP32 storage / quantized storage (quantized layers only)."""
        return self.fp32_storage_kib / self.storage_kib if self.storage_kib else float("inf")

    @property
    def energy_saving(self) -> float:
        """FP32 energy / quantized energy."""
        return self.fp32_energy_uj / self.energy_uj if self.energy_uj else float("inf")

    @property
    def speedup(self) -> float:
        """FP32 latency / quantized latency."""
        return self.fp32_latency_us / self.latency_us if self.latency_us else float("inf")


def _storage_kib(bit_map: BitWidthMap) -> float:
    """Stored weight bits of the arrangement, in KiB."""
    total_bits = sum(
        float(bit_map[name].sum()) * bit_map.weights_per_filter(name)
        for name in bit_map
    )
    return total_bits / 8.0 / 1024.0


def cost_summary(
    profile: ModelProfile,
    bit_map: BitWidthMap,
    act_bits: int,
    label: str = "",
    energy_model: Optional[EnergyModel] = None,
    latency_model: Optional[LatencyModel] = None,
) -> CostSummary:
    """Cost one arrangement over the *quantized* layers of the profile.

    Unquantized layers (first/output) are identical across arrangements
    and excluded, so summaries isolate what the arrangement changes.
    """
    energy_model = energy_model if energy_model is not None else EnergyModel()
    latency_model = latency_model if latency_model is not None else LatencyModel()
    quantized = profile.subset([name for name in profile if name in bit_map])

    energy = energy_model.model_energy(quantized, bit_map, act_bits, unmapped="skip")
    latency = latency_model.model_latency(quantized, bit_map, act_bits, unmapped="skip")
    fp_energy = energy_model.fp32_energy(quantized)
    fp_latency = latency_model.fp32_latency(quantized)
    fp_storage_kib = quantized.total_params * 32 / 8.0 / 1024.0

    return CostSummary(
        label=label,
        average_bits=bit_map.average_bits(),
        storage_kib=_storage_kib(bit_map),
        energy_uj=energy.total_pj / 1e6,
        latency_us=latency.total_s * 1e6,
        fp32_storage_kib=fp_storage_kib,
        fp32_energy_uj=fp_energy.total_pj / 1e6,
        fp32_latency_us=fp_latency.total_s * 1e6,
    )


def layer_cost_table(
    profile: ModelProfile,
    bit_map: BitWidthMap,
    act_bits: int,
    energy_model: Optional[EnergyModel] = None,
    latency_model: Optional[LatencyModel] = None,
    title: str = "per-layer hardware cost:",
) -> str:
    """ASCII per-layer breakdown: MACs, bits, energy, latency, bound."""
    energy_model = energy_model if energy_model is not None else EnergyModel()
    latency_model = latency_model if latency_model is not None else LatencyModel()
    rows = []
    for name in profile:
        if name not in bit_map:
            continue
        layer = profile[name]
        bits = bit_map[name]
        energy = energy_model.layer_energy(layer, bits, act_bits)
        latency = latency_model.layer_latency(layer, bits, act_bits)
        rows.append(
            [
                name,
                layer.macs,
                float(bits.mean()),
                int((bits == 0).sum()),
                energy.total_pj / 1e6,
                latency.total_s * 1e6,
                latency.bound,
            ]
        )
    return ascii_table(
        ["layer", "MACs", "avg bits", "pruned", "energy (uJ)", "latency (us)", "bound"],
        rows,
        title=title,
    )


def frontier_report(
    points: Sequence[DesignPoint],
    title: str = "accuracy-cost frontier:",
    cost_label: str = "cost",
    accuracy_label: str = "accuracy",
) -> str:
    """Pareto frontier + knee summary of a design-space sweep.

    Sweep harnesses (:mod:`repro.experiments.budget_sweep`, the
    ``repro sweep`` CLI) pipe their collected points straight through
    here: the table lists the non-dominated points by ascending cost
    with the knee marked, and the footer reports frontier size and the
    hypervolume against the sweep's own worst corner
    ``(max cost, min accuracy)``.
    """
    if not points:
        return title + "\n  (no design points)"
    front = pareto_front(points)
    knee = knee_point(points)
    rows = [
        [p.label or f"#{i}", p.cost, p.accuracy, "<-- knee" if p is knee else ""]
        for i, p in enumerate(front)
    ]
    table = ascii_table(["design", cost_label, accuracy_label, ""], rows, title=title)
    reference = (max(p.cost for p in points), min(p.accuracy for p in points))
    volume = hypervolume_2d(points, reference)
    footer = (
        f"frontier: {len(front)}/{len(points)} points non-dominated"
        f" | knee: {knee.label or 'n/a'}"
        f" ({cost_label} {knee.cost:.4g}, {accuracy_label} {knee.accuracy:.4g})"
        f" | hypervolume {volume:.4g}"
        f" (ref {cost_label} {reference[0]:.4g}, {accuracy_label} {reference[1]:.4g})"
    )
    return table + "\n" + footer


def comparison_table(
    summaries: Sequence[CostSummary],
    title: str = "arrangement cost comparison:",
) -> str:
    """ASCII comparison of several :class:`CostSummary` rows."""
    rows = [
        [
            s.label,
            s.average_bits,
            s.storage_kib,
            f"x{s.compression:.1f}",
            s.energy_uj,
            f"x{s.energy_saving:.1f}",
            s.latency_us,
            f"x{s.speedup:.1f}",
        ]
        for s in summaries
    ]
    return ascii_table(
        [
            "arrangement",
            "avg bits",
            "storage (KiB)",
            "vs FP32",
            "energy (uJ)",
            "saving",
            "latency (us)",
            "speedup",
        ],
        rows,
        title=title,
    )
