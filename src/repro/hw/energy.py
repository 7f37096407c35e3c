"""Energy model for mixed-precision inference.

Estimates the inference energy of a bit-width arrangement on a
bit-scalable accelerator, so the storage/compute motivation of the
paper's Sec. I can be quantified for the arrangements CQ produces.

The model follows the standard accounting of the mixed-precision
accelerator literature (Horowitz ISSCC'14 energy table; BitFusion-style
precision scaling):

* an ``a``-bit x ``w``-bit multiply costs quadratically in the operand
  widths relative to a reference 8x8 multiply,
* the accumulation add costs linearly in the accumulator width,
* SRAM operand reads cost per bit,
* DRAM traffic (weights + input/output feature maps, each moved once
  per inference under output-stationary reuse) costs per bit.

Filters quantized to 0 bits are pruned: they contribute no compute and
no weight traffic, which is exactly the "skip the pruned weights" saving
the paper describes for pruning-as-0-bit.

All constants are exposed on :class:`EnergyParams` so a different
technology point can be substituted; defaults approximate 45 nm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Union

import numpy as np

from repro.hw.profile import LayerProfile, ModelProfile
from repro.quant.bitmap import BitWidthMap

#: Bit-width used when costing the unquantized (full-precision) model.
FP32_BITS = 32


@dataclass(frozen=True)
class EnergyParams:
    """Technology constants (picojoules), defaults from 45 nm estimates.

    ``mult_8x8_pj`` anchors the quadratic multiplier scaling:
    ``E_mult(w, a) = mult_8x8_pj * (w * a) / 64``. ``add_32_pj`` anchors
    the linear adder scaling with the accumulator width.
    """

    mult_8x8_pj: float = 0.2  #: 8-bit x 8-bit integer multiply
    add_32_pj: float = 0.1  #: 32-bit integer add (accumulator)
    fp32_mac_pj: float = 4.6  #: FP32 multiply + add, for the FP baseline
    sram_pj_per_bit: float = 0.16  #: on-chip operand read, per bit
    dram_pj_per_bit: float = 20.0  #: off-chip transfer, per bit
    accumulator_bits: int = 32  #: accumulator width for integer MACs

    def mult_energy(self, weight_bits: float, act_bits: float) -> float:
        """Energy of one ``weight_bits`` x ``act_bits`` multiply (pJ)."""
        if weight_bits < 0 or act_bits < 0:
            raise ValueError("bit-widths must be non-negative")
        return self.mult_8x8_pj * (weight_bits * act_bits) / 64.0

    def add_energy(self) -> float:
        """Energy of one accumulator add (pJ)."""
        return self.add_32_pj * self.accumulator_bits / 32.0

    def int_mac_energy(self, weight_bits: float, act_bits: float) -> float:
        """Energy of one integer MAC at the given operand widths (pJ)."""
        return self.mult_energy(weight_bits, act_bits) + self.add_energy()


@dataclass(frozen=True)
class LayerEnergy:
    """Energy breakdown for one layer, in picojoules per inference."""

    name: str
    compute_pj: float  #: MAC energy
    sram_pj: float  #: on-chip operand reads for every MAC
    dram_pj: float  #: weights + activations moved on/off chip once
    active_macs: int  #: MACs remaining after 0-bit filters are pruned

    @property
    def total_pj(self) -> float:
        return self.compute_pj + self.sram_pj + self.dram_pj


class EnergyReport:
    """Per-layer :class:`LayerEnergy` plus model-level totals."""

    def __init__(self, layers: Mapping[str, LayerEnergy]):
        self._layers: Dict[str, LayerEnergy] = dict(layers)

    def __getitem__(self, name: str) -> LayerEnergy:
        return self._layers[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)

    @property
    def total_pj(self) -> float:
        return sum(e.total_pj for e in self._layers.values())

    @property
    def compute_pj(self) -> float:
        return sum(e.compute_pj for e in self._layers.values())

    @property
    def memory_pj(self) -> float:
        return sum(e.sram_pj + e.dram_pj for e in self._layers.values())

    def __repr__(self) -> str:
        return f"EnergyReport(layers={len(self)}, total={self.total_pj:.1f} pJ)"


class EnergyModel:
    """Costs a :class:`~repro.hw.profile.ModelProfile` at given precisions.

    Parameters
    ----------
    params:
        Technology constants; defaults to :class:`EnergyParams`.
    """

    def __init__(self, params: Optional[EnergyParams] = None):
        self.params = params if params is not None else EnergyParams()

    # ------------------------------------------------------------------
    # Single layer
    # ------------------------------------------------------------------
    def layer_energy(
        self,
        profile: LayerProfile,
        weight_bits: Union[int, np.ndarray],
        act_bits: int,
    ) -> LayerEnergy:
        """Energy of one layer at per-filter (or scalar) weight precision.

        ``weight_bits`` may be a scalar applied to every filter or an
        array with one entry per filter (a row of a
        :class:`~repro.quant.bitmap.BitWidthMap`).
        """
        bits = np.asarray(weight_bits, dtype=np.float64)
        if bits.ndim == 0:
            bits = np.full(profile.num_filters, float(bits))
        if bits.shape != (profile.num_filters,):
            raise ValueError(
                f"expected {profile.num_filters} per-filter bit-widths for "
                f"{profile.name!r}, got shape {bits.shape}"
            )
        if act_bits < 0:
            raise ValueError("act_bits must be non-negative")

        active = bits > 0
        active_macs = int(profile.macs_per_filter) * int(active.sum())

        p = self.params
        # Compute: each active filter's MACs run at that filter's width.
        compute = float(
            sum(
                profile.macs_per_filter * p.int_mac_energy(b, act_bits)
                for b in bits[active]
            )
        )
        # SRAM: every MAC reads one weight operand and one activation
        # operand from the on-chip buffer.
        sram = float(
            sum(
                profile.macs_per_filter * (b + act_bits) * p.sram_pj_per_bit
                for b in bits[active]
            )
        )
        # DRAM: weights once at their stored width; input activations
        # once (approximated by this layer's output feature map for the
        # producing layer — we charge each layer its own output, which
        # tiles the inter-layer traffic exactly once across the network).
        weight_traffic_bits = float(profile.weights_per_filter * bits[active].sum())
        act_traffic_bits = float(profile.output_elements * act_bits)
        dram = (weight_traffic_bits + act_traffic_bits) * p.dram_pj_per_bit

        return LayerEnergy(
            name=profile.name,
            compute_pj=compute,
            sram_pj=sram,
            dram_pj=dram,
            active_macs=active_macs,
        )

    def _fp_layer_energy(self, profile: LayerProfile) -> LayerEnergy:
        """FP32 cost of one layer (FP MACs, 32-bit traffic)."""
        p = self.params
        compute = profile.macs * p.fp32_mac_pj
        sram = profile.macs * 2 * FP32_BITS * p.sram_pj_per_bit
        dram = (profile.params + profile.output_elements) * FP32_BITS * p.dram_pj_per_bit
        return LayerEnergy(
            name=profile.name,
            compute_pj=float(compute),
            sram_pj=float(sram),
            dram_pj=float(dram),
            active_macs=profile.macs,
        )

    # ------------------------------------------------------------------
    # Whole model
    # ------------------------------------------------------------------
    def model_energy(
        self,
        profile: ModelProfile,
        bit_map: Optional[BitWidthMap] = None,
        act_bits: int = FP32_BITS,
        unmapped: str = "fp32",
    ) -> EnergyReport:
        """Energy report for the whole model.

        Layers present in ``bit_map`` are costed at their per-filter
        widths with ``act_bits`` activations. Layers absent from the map
        (e.g. the unquantized first/output layers) are costed per
        ``unmapped``: ``"fp32"`` (default) or ``"skip"``.
        """
        if unmapped not in ("fp32", "skip"):
            raise ValueError(f"unmapped must be 'fp32' or 'skip', got {unmapped!r}")
        layers: Dict[str, LayerEnergy] = {}
        for name in profile:
            layer_profile = profile[name]
            if bit_map is not None and name in bit_map:
                layers[name] = self.layer_energy(layer_profile, bit_map[name], act_bits)
            elif unmapped == "fp32":
                layers[name] = self._fp_layer_energy(layer_profile)
        return EnergyReport(layers)

    def fp32_energy(self, profile: ModelProfile) -> EnergyReport:
        """FP32 baseline for the whole profile (no quantization)."""
        return EnergyReport({name: self._fp_layer_energy(profile[name]) for name in profile})
