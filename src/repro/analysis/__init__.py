"""Analysis and reporting: the data behind every figure of the paper.

* :mod:`repro.analysis.histograms` — importance-score histograms (Fig. 2).
* :mod:`repro.analysis.arrangement` — sorted score curves with bit-width
  thresholds (Figs. 3 and 6) and weight-count-per-bit summaries (Fig. 7).
* :mod:`repro.analysis.render` — ASCII tables / bar charts used by the
  benchmark harness to print the figures' content on a terminal.
* :mod:`repro.analysis.classwise` — per-class accuracy before/after
  quantization, related to the importance mass each class kept.
* :mod:`repro.analysis.engine` + :mod:`repro.analysis.rules` — the
  ``repro lint`` AST invariant linter ("reprolint"): determinism,
  strict-JSON, lock-discipline, thread-lifecycle and bare-except rules
  over the repo's own sources (stdlib-only; never imports linted code).
"""

from repro.analysis.classwise import (
    ClasswiseReport,
    classwise_report,
    kept_importance_per_class,
    per_class_accuracy,
    render_classwise,
)
from repro.analysis.histograms import score_histogram, score_histograms
from repro.analysis.arrangement import (
    bit_width_distribution,
    layer_bit_summary,
    sorted_score_curve,
    sorted_score_curves,
)
from repro.analysis.engine import Finding, LintConfig, LintReport, lint_paths
from repro.analysis.render import ascii_bars, ascii_histogram, ascii_table

__all__ = [
    "ClasswiseReport",
    "Finding",
    "LintConfig",
    "LintReport",
    "lint_paths",
    "classwise_report",
    "kept_importance_per_class",
    "per_class_accuracy",
    "render_classwise",
    "ascii_bars",
    "ascii_histogram",
    "ascii_table",
    "bit_width_distribution",
    "layer_bit_summary",
    "score_histogram",
    "score_histograms",
    "sorted_score_curve",
    "sorted_score_curves",
]
