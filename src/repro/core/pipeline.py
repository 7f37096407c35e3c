"""End-to-end class-based quantization pipeline (paper Sec. III).

:class:`ClassBasedQuantizer` wires the four stages together:

1. importance scoring on the pre-trained full-precision model,
2. threshold search for the per-filter bit-width arrangement,
3. model conversion to fake-quantized form (weights per-filter,
   activations model-level) with activation-range calibration,
4. knowledge-distillation refinement with the FP model as teacher.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.core.config import CQConfig
from repro.core.distill import refine_quantized_model
from repro.core.evaluator import IncrementalEvaluator
from repro.core.importance import ImportanceResult, ImportanceScorer
from repro.core.search import BitWidthSearch, SearchResult
from repro.data.dataset import ArrayDataset, DataLoader
from repro.data.synthetic import SynthCIFAR
from repro.nn.module import Module
from repro.quant.bitmap import BitWidthMap
from repro.quant.bn import reestimate_batchnorm_stats
from repro.quant.qmodules import apply_bit_map, calibrate_activations, quantize_model
from repro.train.trainer import History, evaluate_model
from repro.utils.misc import clone_module


@dataclass
class CQResult:
    """Everything the pipeline produced."""

    model: Module
    """The refined quantized model."""

    teacher: Module
    """The original full-precision model (used as the KD teacher)."""

    bit_map: BitWidthMap
    importance: ImportanceResult
    search: SearchResult
    config: Optional[CQConfig] = None
    """The pipeline configuration that produced this result (``None``
    only for hand-built results). Downstream consumers
    (e.g. :func:`repro.serve.artifact.artifact_from_result`) read
    ``max_bits``/``act_bits`` from here to rebuild the model."""

    refine_history: History = field(repr=False, default=None)
    accuracy_fp: float = float("nan")
    """Test accuracy of the full-precision model."""

    accuracy_before_refine: float = float("nan")
    """Test accuracy right after quantization, before fine-tuning."""

    accuracy_after_refine: float = float("nan")
    """Test accuracy of the final refined quantized model."""

    @property
    def average_bits(self) -> float:
        return self.bit_map.average_bits()


class ClassBasedQuantizer:
    """Applies CQ to a pre-trained model on a dataset.

    Parameters
    ----------
    config:
        Pipeline hyper-parameters; see :class:`~repro.core.config.CQConfig`.

    Example
    -------
    >>> quantizer = ClassBasedQuantizer(CQConfig(target_avg_bits=2.0, act_bits=2))
    >>> result = quantizer.quantize(model, dataset)
    >>> result.average_bits <= 2.0
    True
    """

    def __init__(self, config: Optional[CQConfig] = None):
        self.config = config if config is not None else CQConfig()

    # ------------------------------------------------------------------
    def quantize(
        self,
        model: Module,
        dataset: SynthCIFAR,
        taps: Optional[Mapping[str, Module]] = None,
    ) -> CQResult:
        """Run the full CQ pipeline.

        ``model`` is left untouched (it becomes the teacher); the
        returned :class:`CQResult` carries the refined quantized clone.
        """
        cfg = self.config

        importance = self.compute_importance(model, dataset, taps)
        search = self.search_bit_widths(model, dataset, importance)
        student = self.build_quantized_model(model, dataset, search.bit_map)

        test_loader = DataLoader(
            ArrayDataset(dataset.test_images, dataset.test_labels),
            batch_size=cfg.refine_batch_size,
        )
        accuracy_fp = evaluate_model(model, test_loader).accuracy
        accuracy_before = evaluate_model(student, test_loader).accuracy

        history = refine_quantized_model(
            student,
            teacher=model,
            train_dataset=ArrayDataset(dataset.train_images, dataset.train_labels),
            val_dataset=ArrayDataset(dataset.val_images, dataset.val_labels),
            config=cfg,
        )
        accuracy_after = evaluate_model(student, test_loader).accuracy

        return CQResult(
            model=student,
            teacher=model,
            bit_map=search.bit_map,
            importance=importance,
            search=search,
            config=cfg,
            refine_history=history,
            accuracy_fp=accuracy_fp,
            accuracy_before_refine=accuracy_before,
            accuracy_after_refine=accuracy_after,
        )

    # ------------------------------------------------------------------
    # Individual stages (public so benches/ablations can mix and match)
    # ------------------------------------------------------------------
    def compute_importance(
        self,
        model: Module,
        dataset: SynthCIFAR,
        taps: Optional[Mapping[str, Module]] = None,
    ) -> ImportanceResult:
        """Stage 1: class-based importance scores (Sec. III-A/B)."""
        scorer = ImportanceScorer(model, taps=taps, eps=self.config.eps)
        batches = dataset.class_batches(self.config.samples_per_class, split="val")
        return scorer.score(batches)

    def search_bit_widths(
        self,
        model: Module,
        dataset: SynthCIFAR,
        importance: ImportanceResult,
    ) -> SearchResult:
        """Stage 2: threshold search (Sec. III-C).

        Accuracy queries run through the cached
        :class:`~repro.core.evaluator.IncrementalEvaluator` (bit-exact
        with the naive protocol); its cost counters are returned in
        :attr:`SearchResult.eval_stats`.
        """
        cfg = self.config
        count = min(cfg.search_batch_size, len(dataset.val_images))
        evaluator = IncrementalEvaluator(
            model,
            dataset.val_images[:count],
            dataset.val_labels[:count],
            max_bits=cfg.max_bits,
        )
        filter_scores = importance.filter_scores()
        weights_per_filter = self._weights_per_filter(model, filter_scores)
        search = BitWidthSearch(filter_scores, weights_per_filter, evaluator, cfg)
        return search.run()

    def build_quantized_model(
        self,
        model: Module,
        dataset: SynthCIFAR,
        bit_map: BitWidthMap,
    ) -> Module:
        """Stage 3: convert a clone to quantized form and calibrate.

        Calibration covers both activation ranges (observers) and
        batch-norm running statistics: quantized weights shift the
        pre-BN distributions, so the FP statistics are re-estimated on
        training data before refinement (see :mod:`repro.quant.bn`).
        """
        cfg = self.config
        student = clone_module(model)
        quantize_model(student, max_bits=cfg.max_bits, act_bits=cfg.act_bits)
        apply_bit_map(student, bit_map)
        calibration = dataset.train_images[: cfg.search_batch_size]
        if cfg.act_bits is not None:
            calibrate_activations(student, [calibration])
        reestimate_batchnorm_stats(student, [calibration], passes=10)
        return student

    # ------------------------------------------------------------------
    @staticmethod
    def _weights_per_filter(model: Module, filter_scores) -> dict:
        """Weights-per-filter for each scored layer, read from the FP model."""
        from repro.nn.layers import Conv2d, Linear

        modules = dict(model.named_modules())
        result = {}
        for name in filter_scores:
            module = modules.get(name)
            if module is None or not isinstance(module, (Conv2d, Linear)):
                raise KeyError(
                    f"scored layer {name!r} is not a weight layer of the model"
                )
            count = int(module.weight.size // module.weight.shape[0])
            if module.weight.shape[0] != len(filter_scores[name]):
                raise ValueError(
                    f"layer {name!r} has {module.weight.shape[0]} filters but "
                    f"{len(filter_scores[name])} scores"
                )
            result[name] = count
        return result
