"""Shared plumbing for the benchmark: paths, statistics, host facts,
background-thread error counting, and the metric catalogue.

Every workload module reports its figures through the names declared in
``END_TO_END`` and ``PER_LAYER`` below; ``BENCHMARK.json`` lists the
same names, and ``run.py`` refuses to print a result whose metric set
differs from them.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import threading
import traceback
from pathlib import Path
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: The served/quantized preset: the committed VGG-small checkpoint.
PRESET = {"model": "vgg-small", "dataset": "synth10", "scale": "tiny", "seed": 0}

#: VGG-small leaf layers in forward order (``VGGSmall.segment_modules``).
VGG_LEAVES = (
    "conv0", "bn0", "relu0",
    "conv1", "bn1", "relu1", "pool1",
    "conv2", "bn2", "relu2", "pool2",
    "conv3", "bn3", "relu3",
    "conv4", "bn4", "relu4", "pool4",
    "flatten",
    "fc5", "relu5", "fc6", "relu6", "fc7", "relu7", "fc8",
)
VGG_CONVS = ("conv0", "conv1", "conv2", "conv3", "conv4")
VGG_QUANTIZED = ("conv1", "conv2", "conv3", "conv4", "fc5", "fc6", "fc7")

#: End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "success_rate": "ratio",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "accuracy": "ratio",
}

THREAD_ERROR_MODULES = (
    "serve.procpool", "serve.engine", "serve.pool", "gateway", "perfbench", "other",
)


def _per_layer() -> Dict[str, str]:
    names: Dict[str, str] = {
        # quantize stages (per quantize call)
        "core.importance.wall_s": "s",
        "core.search.wall_s": "s",
        "quant.build.wall_s": "s",
        "core.distill.epoch_s": "s",
        "train.evaluate.wall_s": "s",
        "core.evaluator.evaluations": "count",
        "core.evaluator.memo_hit_ratio": "ratio",
        "core.evaluator.filters_quantized": "count",
        "core.evaluator.segments_skipped_ratio": "ratio",
        # kernel self time and calls (per unit of work)
        "tensor.functional.conv2d_s": "s",
        "tensor.functional.im2col_s": "s",
        "tensor.functional.col2im_s": "s",
        "tensor.functional.conv2d_calls": "count",
        "tensor.functional.im2col_calls": "count",
        "tensor.functional.col2im_calls": "count",
    }
    for layer in VGG_LEAVES:
        names[f"nn.{layer}.b32_ms"] = "ms"
        names[f"nn.{layer}.b1_ms"] = "ms"
    for layer in VGG_CONVS:
        names[f"tensor.functional.im2col.{layer}.b32_ms"] = "ms"
    for layer in VGG_QUANTIZED:
        names[f"quant.integer.{layer}.b32_ms"] = "ms"
        names[f"quant.integer.{layer}.b1_ms"] = "ms"
    names.update({
        # offline serving
        "serve.offline.float_rows_per_s": "1/s",
        "serve.offline.integer_rows_per_s": "1/s",
        "serve.offline.process_rows_per_s": "1/s",
        "serve.engine.forwards": "count",
        "serve.engine.mean_batch": "count",
        "serve.engine.overhead_s": "s",
        "serve.procpool.forwards": "count",
        "serve.procpool.mean_batch": "count",
        "serve.artifact.build_s": "s",
        "serve.artifact.load_s": "s",
        "serve.integer.compile_s": "s",
        "serve.procpool.spawn_s": "s",
        # gateway request path
        "gateway.wire_overhead_ms": "ms",
        "gateway.wire.codec_us": "us",
        "serve.engine.queue_wait_ms": "ms",
        "serve.engine.service_ms": "ms",
        "gateway.registry.rejected": "count",
        "loadgen.lag_ms": "ms",
        # harness
        "trace.overhead_pct": "%",
    })
    for module in THREAD_ERROR_MODULES:
        names[f"{module}.thread_errors"] = "count"
    return names


PER_LAYER = _per_layer()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile`` default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def digest(data: bytes) -> str:
    return hashlib.sha1(data).hexdigest()[:16]


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _openblas_threads() -> int:
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return -1


def fingerprint() -> Dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {}
    checkpoints = sorted(
        path.name
        for path in (ROOT / ".cache" / "pretrained").glob(
            "{model}-{dataset}-{scale}-{seed}-*.npz".format(**PRESET)
        )
    )
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "openblas_threads": _openblas_threads(),
        "checkpoint": checkpoints[0].rsplit("-", 1)[-1][:-4] if checkpoints else None,
    }


# ----------------------------------------------------------------------
# Unhandled background-thread exceptions
# ----------------------------------------------------------------------
class ThreadErrors:
    """Counts exceptions that escape any thread, by the module of the
    deepest frame that belongs to the program (or to this benchmark)."""

    def __init__(self):
        self.counts: Dict[str, int] = {module: 0 for module in THREAD_ERROR_MODULES}
        self._lock = threading.Lock()
        self._previous = None

    def install(self) -> "ThreadErrors":
        self._previous = threading.excepthook
        threading.excepthook = self._hook
        return self

    def uninstall(self) -> None:
        if self._previous is not None:
            threading.excepthook = self._previous
            self._previous = None

    def _hook(self, args) -> None:
        module = "other"
        for frame, _ in traceback.walk_tb(args.exc_traceback):
            name = frame.f_globals.get("__name__", "")
            if name.startswith("repro."):
                parts = name.split(".")
                candidate = ".".join(parts[1:3])
                module = candidate if candidate in self.counts else (
                    "gateway" if parts[1] == "gateway" else "other"
                )
            elif Path(frame.f_code.co_filename).parent == Path(__file__).parent:
                module = "perfbench"
        with self._lock:
            self.counts[module] += 1
        thread = args.thread.name if args.thread is not None else "?"
        print(
            f"thread error in {thread} ({module}): "
            f"{args.exc_type.__name__}: {args.exc_value}",
            file=sys.stderr,
        )

    def metrics(self) -> Dict[str, float]:
        with self._lock:
            return {f"{module}.thread_errors": float(count) for module, count in self.counts.items()}


def stop_helper_processes() -> None:
    """End every process this run started through ``multiprocessing``.

    Worker processes are already joined by the pools that own them; any
    left alive here (a failed run) are terminated and reaped. Creating a
    shared-memory segment starts the resource tracker, a separate process
    that Python does not wait for at exit, so it is stopped and reaped
    explicitly. It can only stop once no live child holds its pipe, hence
    the order."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def info(label: str, payload) -> None:
    """A human-readable line on stdout (never the last line)."""
    print(f"# {label}: {json.dumps(payload, sort_keys=True, allow_nan=False)}", flush=True)


def span_metrics(summary: Dict[str, Dict[str, float]], units: int) -> Dict[str, float]:
    """Kernel self seconds and call counts per unit of work."""
    units = max(1, units)
    metrics: Dict[str, float] = {}
    for kernel in ("conv2d", "im2col", "col2im"):
        entry = summary.get(f"tensor.functional.{kernel}", {"self_s": 0.0, "count": 0})
        metrics[f"tensor.functional.{kernel}_s"] = entry["self_s"] / units
        metrics[f"tensor.functional.{kernel}_calls"] = entry["count"] / units
    return metrics


def stage_mean(summary: Dict[str, Dict[str, float]], name: str) -> float:
    entry = summary.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return entry["total_s"] / entry["count"]


def quartile_line(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    ordered = sorted(values)
    return (
        f"n={len(values)} min={ordered[0]:.4g} p25={percentile(ordered, 25):.4g} "
        f"p50={percentile(ordered, 50):.4g} p75={percentile(ordered, 75):.4g} max={ordered[-1]:.4g}"
    )
