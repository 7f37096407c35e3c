"""Workload ``quantize``: the full class-based quantization pipeline.

Repeats ``ClassBasedQuantizer.quantize`` (importance -> threshold search
-> build/calibrate -> KD refinement) on the committed VGG-small ``tiny``
synth10 checkpoint at a 2.0-bit budget, 4-bit ceiling, weights only,
for a fixed number of refine epochs. It runs ``core``, ``quant``,
``train`` and the autograd conv path, and never touches ``serve`` or
``gateway``.

The pipeline's inputs are the checkpoint and its deterministic dataset,
so ``--seed`` does not change them: another seed would need another
checkpoint, that is, training inside set-up. Every call therefore gives
the same bit map and accuracy, which the run checks.

Unit of work: one ``quantize`` call.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

from common import (
    PRESET,
    digest,
    info,
    median,
    percentile,
    quartile_line,
    span_metrics,
    stage_mean,
)

BUDGET_BITS = 2.0
MAX_BITS = 4
REFINE_EPOCHS = 4
SETUP_REPEATS = 9
MIN_CALLS = 3


def _setup():
    """Load the checkpoint from disk and build the pipeline's inputs."""
    from repro.core.config import CQConfig
    from repro.core.pipeline import ClassBasedQuantizer
    from repro.data.dataset import ArrayDataset, DataLoader
    from repro.experiments.presets import clear_caches, get_pretrained
    from repro.train.trainer import evaluate_model

    clear_caches()
    model, dataset, _ = get_pretrained(
        PRESET["model"], PRESET["dataset"], scale=PRESET["scale"], seed=PRESET["seed"]
    )
    config = CQConfig(
        target_avg_bits=BUDGET_BITS,
        max_bits=MAX_BITS,
        act_bits=None,
        refine_epochs=REFINE_EPOCHS,
        samples_per_class=min(16, dataset.config.val_per_class),
        seed=0,
    )
    # Warm the forward path once (BLAS threads, allocator).
    evaluate_model(
        model, DataLoader(ArrayDataset(dataset.test_images, dataset.test_labels), batch_size=100),
        accuracy_only=True,
    )
    return ClassBasedQuantizer(config), model, dataset


def _one_call(quantizer, model, dataset):
    started = time.perf_counter()
    result = quantizer.quantize(model, dataset)
    wall = time.perf_counter() - started
    bitmap = json.dumps(result.bit_map.to_dict(), sort_keys=True, allow_nan=False)
    return wall, result, bitmap


def _wrap_stages(tracer) -> None:
    import repro.core.pipeline as pipeline
    import repro.train.trainer as trainer
    from tracer import wrap_kernels

    quantizer = pipeline.ClassBasedQuantizer
    tracer.wrap(quantizer, "compute_importance", "core.importance")
    tracer.wrap(quantizer, "search_bit_widths", "core.search")
    tracer.wrap(quantizer, "build_quantized_model", "quant.build")
    tracer.wrap(pipeline, "refine_quantized_model", "core.distill")
    tracer.wrap(trainer.Trainer, "train_epoch", "core.distill.epoch")
    # evaluate_model is imported by name into both modules.
    tracer.wrap(pipeline, "evaluate_model", "train.evaluate")
    tracer.wrap(trainer, "evaluate_model", "train.evaluate")
    wrap_kernels(tracer)


def run(seed: int, seconds: float, tracer=None) -> Dict[str, object]:
    setups: List[float] = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        quantizer, model, dataset = _setup()
        setups.append(time.perf_counter() - started)

    def timed_calls(budget_s: float):
        walls, results, bitmaps = [], [], []
        started = time.perf_counter()
        while len(walls) < MIN_CALLS or time.perf_counter() - started < budget_s:
            wall, result, bitmap = _one_call(quantizer, model, dataset)
            walls.append(wall)
            results.append(result)
            bitmaps.append(bitmap)
        return walls, results, bitmaps

    traced_walls: List[float] = []
    if tracer is None:
        walls, results, bitmaps = timed_calls(seconds)
    else:
        walls, results, bitmaps = timed_calls(seconds / 2)
        _wrap_stages(tracer)
        try:
            traced_walls, traced_results, traced_bitmaps = timed_calls(seconds / 2)
        finally:
            tracer.restore()
        results += traced_results
        bitmaps += traced_bitmaps

    # ---- checks: budget respected, every call identical -----------------
    failed = 0
    reference_accuracy = results[0].accuracy_after_refine
    for result, bitmap in zip(results, bitmaps):
        ok = (
            result.average_bits <= BUDGET_BITS + 1e-9
            and 0.0 < result.accuracy_after_refine <= 1.0
            and result.accuracy_after_refine == reference_accuracy
            and bitmap == bitmaps[0]
        )
        failed += 0 if ok else 1
    stats = results[0].search.eval_stats
    info("quantize", {
        "calls": len(results),
        "accuracy_after_refine": reference_accuracy,
        "average_bits": results[0].average_bits,
        "bit_map_digest": digest(bitmaps[0].encode()),
        "eval_stats": stats.summary(),
        "call_walls_s": quartile_line(walls),
        # One sample per call: p99 here is close to the slowest call.
        "p99_samples_beyond": 0,
    })

    latencies_ms = [1e3 * wall for wall in walls]
    metrics = {
        "setup_s": median(setups),
        "success_rate": (len(results) - failed) / len(results),
        "throughput_per_s": 1.0 / median(walls),
        "latency_p50_ms": median(latencies_ms),
        "latency_p99_ms": percentile(latencies_ms, 99),
        "accuracy": reference_accuracy,
    }
    layer: Dict[str, float] = {}
    if tracer is not None:
        summary = tracer.summary()
        calls = len(traced_walls)
        layer.update({
            "core.importance.wall_s": stage_mean(summary, "core.importance"),
            "core.search.wall_s": stage_mean(summary, "core.search"),
            "quant.build.wall_s": stage_mean(summary, "quant.build"),
            "core.distill.epoch_s": stage_mean(summary, "core.distill.epoch"),
            "train.evaluate.wall_s": summary.get("train.evaluate", {"total_s": 0.0})["total_s"] / calls,
            "core.evaluator.evaluations": float(stats.evaluations),
            "core.evaluator.memo_hit_ratio": stats.memo_hits / max(1, stats.evaluations),
            "core.evaluator.filters_quantized": float(stats.filters_quantized),
            # Skipped over every segment the non-memo forwards could have run.
            "core.evaluator.segments_skipped_ratio": stats.segments_skipped / max(
                1, (stats.full_forwards + stats.partial_forwards) * stats.num_segments
            ),
            "trace.overhead_pct": 100.0 * (median(traced_walls) / median(walls) - 1.0),
        })
        layer.update(span_metrics(summary, calls))
    return {
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
        "layer": layer,
    }
