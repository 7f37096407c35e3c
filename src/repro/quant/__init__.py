"""Quantization substrate: uniform quantizer, STE fake-quant modules.

Implements the paper's uniform quantization (Sec. II-A, eqs. 1-3) with
*per-filter / per-neuron* bit-widths — the granularity CQ searches over —
plus model-level activation quantization, range observers and the
model-conversion entry point :func:`quantize_model`.
"""

from repro.quant.uniform import (
    UniformQuantizer,
    average_bit_width,
    quantize_per_filter,
    quantize_uniform,
)
from repro.quant.bitmap import BitWidthMap
from repro.quant.histogram_observer import HistogramObserver
from repro.quant.observer import MinMaxObserver
from repro.quant.ste import ste_quantize_weights, ste_quantize_activations
from repro.quant.qmodules import QConv2d, QLinear, quantize_model, quantized_layers
from repro.quant.export import QuantizedExport, export_quantized_weights, verify_export
from repro.quant.integer import (
    IntegerEquivalenceError,
    IntegerLayerSpec,
    compile_integer_layer,
    compile_integer_layer_from_export,
    diagnose_integer_equivalence,
    integer_mode,
    max_acc_bits,
    verify_integer_equivalence,
)
from repro.quant.packing import (
    deserialize_export,
    pack_bits,
    read_bitstream,
    serialize_export,
    unpack_bits,
    write_bitstream,
)
from repro.quant.metrics import pruned_weight_fraction, weight_sqnr_db

__all__ = [
    "BitWidthMap",
    "HistogramObserver",
    "IntegerEquivalenceError",
    "IntegerLayerSpec",
    "MinMaxObserver",
    "QConv2d",
    "QLinear",
    "QuantizedExport",
    "UniformQuantizer",
    "average_bit_width",
    "compile_integer_layer",
    "compile_integer_layer_from_export",
    "deserialize_export",
    "diagnose_integer_equivalence",
    "export_quantized_weights",
    "integer_mode",
    "max_acc_bits",
    "pack_bits",
    "read_bitstream",
    "pruned_weight_fraction",
    "quantize_model",
    "quantize_per_filter",
    "quantize_uniform",
    "quantized_layers",
    "serialize_export",
    "unpack_bits",
    "ste_quantize_activations",
    "ste_quantize_weights",
    "verify_export",
    "verify_integer_equivalence",
    "write_bitstream",
    "weight_sqnr_db",
]
