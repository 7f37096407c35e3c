"""Incremental search-evaluation engine for the bit-width search.

The Sec. III-C threshold search is evaluation-bound: every threshold
move asks for the validation accuracy of a slightly different per-filter
bit assignment. The naive protocol re-applies ``set_bits`` to every
quantized layer and re-runs a full forward pass per move, although a
single move typically leaves most layers' bit vectors unchanged.

:class:`IncrementalEvaluator` is a drop-in replacement for the naive
closure with three stacked caches, each bit-exact with the naive path:

1. **Per-layer quantized-weight cache** — each quantized layer's
   effective (fake-quantized) weight is memoised by a hash of its bit
   vector, so ``set_bits`` + re-quantization only happens for layers
   whose bits actually changed between consecutive evaluations. On a
   miss, the layer is re-quantized *incrementally*: the clip range is
   layer-wide and fixed (eq. 1 — and search never touches weights), so
   each filter row is an independent function of its own bit-width and
   only rows whose bits changed are recomputed, patched into a copy of
   the previous quantized array.
2. **Segment-granular forward-prefix activation cache** — the model is
   traced as an execution-ordered sequence of *segments*, each either a
   single leaf layer or an opaque residual block (models declare block
   boundaries via ``segment_modules()``; see
   :meth:`repro.models.resnet.ResNet20.segment_modules`). Every
   segment's input activation is recorded during each forward. When a
   move changes bits only in layers inside segment *k* or later, the
   next evaluation resumes from segment *k*'s cached input — the block
   runs internally in full (residual branch included), but the entire
   unchanged prefix is skipped. Chain models (MLP, VGG) are the
   degenerate case where every segment is a leaf; models without the
   protocol fall back to a leaf-granular trace, and models whose traced
   segment sequence is not a chain silently fall back to full forwards
   — the other two caches still apply.
3. **Whole-assignment memoization** — accuracies are memoised by the
   full bit-assignment signature, so Phase-2 squeeze revisits and the
   repeated probes of greedy per-layer searches are free.

All three caches are safe because the evaluator owns a private cloned
surrogate that only ever runs in ``eval()`` mode under ``no_grad`` on a
fixed validation batch: quantization and every traced module are
deterministic functions of (weights, bits, input).

:class:`EvalStats` counts evaluations, cache traffic and wall time;
:class:`~repro.core.search.BitWidthSearch` snapshots it into the
:class:`~repro.core.search.SearchResult` so Figure-3 traces also report
search cost.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.nn.module import Module
from repro.quant.qmodules import quantize_model, quantized_layers
from repro.quant.uniform import UniformQuantizer, quantize_per_filter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.misc import clone_module


@dataclass
class EvalStats:
    """Cost counters for a search-evaluation engine.

    Two units of work are tracked against their naive baselines:

    * *filter re-quantizations* (one filter row pushed through
      eqs. 1-3) — the naive protocol performs
      ``evaluations * num_filters`` of them (every filter of every
      layer on every query), the baseline of
      :attr:`quantization_reduction`;
    * *quantized-layer executions* (one quantized layer run in one
      forward) — the naive protocol performs
      ``evaluations * num_layers`` of them (a full forward per query),
      the baseline of :attr:`layer_execution_reduction`. Memoized
      queries and prefix-skipped segments both reduce this count.

    Counters accumulate across queries; :meth:`snapshot` produces the
    immutable copy attached to search results.
    """

    num_layers: int = 0
    """Quantized layers of the surrogate model."""

    num_filters: int = 0
    """Total filters across all quantized layers."""

    num_segments: int = 0
    """Segments of the traced forward (0 when tracing failed or the
    prefix cache is disabled)."""

    evaluations: int = 0
    """Total accuracy queries (including memoized ones)."""

    memo_hits: int = 0
    """Queries answered from the whole-assignment memo (no forward)."""

    full_forwards: int = 0
    """Forwards that ran every segment from the model input."""

    partial_forwards: int = 0
    """Forwards resumed from a cached segment-boundary activation."""

    layer_requests: int = 0
    """Quantized-weight cache lookups (one per executed layer while the
    weight cache is installed; 0 when it is disabled)."""

    layers_executed: int = 0
    """Quantized-layer executions across all forwards, full or partial
    (counted by the forward driver, independent of any cache toggle)."""

    layers_quantized: int = 0
    """Weight-cache misses re-quantizing a layer from scratch."""

    layers_patched: int = 0
    """Weight-cache misses served by patching only the changed filters."""

    filters_quantized: int = 0
    """Filter rows actually pushed through the quantizer."""

    prefix_layers_skipped: int = 0
    """Quantized-layer executions avoided entirely by prefix resumption."""

    segments_skipped: int = 0
    """Segment executions avoided entirely by prefix resumption."""

    eval_seconds: float = 0.0
    """Wall time spent inside the evaluator."""

    @property
    def naive_filter_quantizations(self) -> int:
        """Filter re-quantizations the naive protocol needs for the
        same query sequence (every filter, every query)."""
        return self.evaluations * self.num_filters

    @property
    def quantization_reduction(self) -> float:
        """Naive-over-cached quantization-work ratio (>= 1 means savings)."""
        if self.filters_quantized == 0:
            return float("inf") if self.evaluations else 1.0
        return self.naive_filter_quantizations / self.filters_quantized

    @property
    def naive_layer_executions(self) -> int:
        """Quantized-layer executions the naive protocol needs for the
        same query sequence (every layer, every query)."""
        return self.evaluations * self.num_layers

    @property
    def layer_execution_reduction(self) -> float:
        """Naive-over-cached forward-work ratio (>= 1 means savings).

        Cached work is :attr:`layers_executed`, so memo hits (no
        forward at all) and prefix-skipped segments both count as
        savings.
        """
        if self.layers_executed == 0:
            return float("inf") if self.evaluations else 1.0
        return self.naive_layer_executions / self.layers_executed

    @property
    def weight_cache_hit_rate(self) -> float:
        """Fraction of per-layer weight lookups needing no quantization."""
        if self.layer_requests == 0:
            return 0.0
        misses = self.layers_quantized + self.layers_patched
        return 1.0 - misses / self.layer_requests

    def snapshot(self) -> "EvalStats":
        """An immutable copy (attached to search results)."""
        return replace(self)

    def summary(self) -> str:
        """One-line human-readable digest of every counter family."""
        return (
            f"evals={self.evaluations} (memo {self.memo_hits}, "
            f"full {self.full_forwards}, partial {self.partial_forwards}) "
            f"filter-requants={self.filters_quantized}/"
            f"{self.naive_filter_quantizations} "
            f"(x{self.quantization_reduction:.1f} saved, "
            f"layer hit-rate {self.weight_cache_hit_rate:.0%}) "
            f"layer-execs={self.layers_executed}/{self.naive_layer_executions} "
            f"(x{self.layer_execution_reduction:.1f} saved, "
            f"{self.segments_skipped} segments skipped) "
            f"wall={self.eval_seconds:.2f}s"
        )


def _bits_signature(bits: np.ndarray) -> bytes:
    """Hashable exact signature of one layer's per-filter bit vector."""
    arr = np.ascontiguousarray(np.asarray(bits, dtype=np.int64))
    return arr.tobytes()


class _TraceEntry:
    """One segment execution recorded while tracing the surrogate.

    A segment is either a single leaf module or an opaque composite
    block (e.g. a residual ``BasicBlock``) declared by the model's
    ``segment_modules()`` protocol. The input/output tensors themselves
    are kept alive for the duration of the chain check so CPython
    cannot recycle their addresses — identity comparisons between
    entries stay meaningful.
    """

    __slots__ = ("name", "module", "input", "output")

    def __init__(self, name: str, module: Module, input: Tensor, output: Tensor):
        self.name = name
        self.module = module
        self.input = input
        self.output = output


def _declared_segments(model: Module) -> Optional[List[Tuple[str, Module]]]:
    """The model's ``segment_modules()`` declaration, if it has one.

    Only membership matters — the execution order and the chain
    property are re-derived (and validated) by tracing a forward, so a
    model cannot corrupt the cache by mis-ordering its declaration.
    """
    getter = getattr(model, "segment_modules", None)
    if getter is None:
        return None
    try:
        segments = getter()
    except Exception:  # pragma: no cover - defensive  # repro: allow(bare-except)
        return None
    return list(segments.items())


def _leaf_modules(model: Module) -> List[Tuple[str, Module]]:
    """All leaf modules — the fallback segmentation for models without
    a ``segment_modules()`` declaration (pure chains still trace)."""
    return [
        (name, module)
        for name, module in model.named_modules()
        if not module._modules and name
    ]


def _trace_segments(
    model: Module, sample: np.ndarray, targets: List[Tuple[str, Module]]
) -> Tuple[List[_TraceEntry], Optional[Tensor]]:
    """Execution-ordered trace of ``targets`` over one forward.

    Each target module's ``forward`` is temporarily wrapped to record
    ``(module, input, output)``; modules *inside* a composite target run
    unobserved, so a residual block contributes exactly one entry.
    Wrapping only supports modules called with a single positional
    tensor; anything else aborts the trace (returns an empty list),
    which disables prefix caching.
    """
    trace: List[_TraceEntry] = []
    aborted = [False]
    wrapped: List[Module] = []
    try:
        for name, module in targets:
            original = module.forward

            def tracer(*args, _name=name, _module=module, _orig=original, **kwargs):
                if len(args) != 1 or kwargs or not isinstance(args[0], Tensor):
                    aborted[0] = True
                    return _orig(*args, **kwargs)
                out = _orig(args[0])
                trace.append(_TraceEntry(_name, _module, args[0], out))
                return out

            module.forward = tracer
            wrapped.append(module)
        with no_grad():
            output = model(Tensor(sample))
    finally:
        for module in wrapped:
            try:
                object.__delattr__(module, "forward")
            except AttributeError:  # pragma: no cover - defensive
                pass
    if aborted[0]:
        return [], None
    return trace, output


class IncrementalEvaluator:
    """Cached drop-in for the naive weights-only search evaluator.

    Callable with a ``{layer name -> per-filter bits}`` mapping and
    returns validation accuracy, exactly like the closure produced by
    :func:`make_naive_weight_quant_evaluator` — but incrementally.

    Guarantees
    ----------
    * **Bit-exact**: for any query sequence, every returned accuracy is
      identical (``==``, not approximately) to what the naive
      re-quantize-everything protocol returns — enforced by
      ``tests/test_search_eval_cache.py`` and required of any change to
      this class.
    * **Stateful like the naive closure**: layers omitted from a query
      mapping keep their previously applied bit vectors; the memo keys
      on the full applied state so partial mappings never alias.
    * **Private surrogate**: the caller's model is cloned once and
      never mutated; the surrogate only runs in ``eval()`` mode under
      ``no_grad`` on a fixed validation batch, which is what makes all
      three caches sound (every traced module is a deterministic
      function of weights, bits and input).

    Cost counters accumulate in :attr:`stats` (an :class:`EvalStats`);
    :class:`~repro.core.search.BitWidthSearch` snapshots them into
    :attr:`~repro.core.search.SearchResult.eval_stats`.

    Parameters
    ----------
    model:
        Pre-trained float model; cloned, converted to weights-only
        fake-quantized form and kept private to the evaluator.
    val_images, val_labels:
        Fixed validation batch every candidate is scored on.
    max_bits:
        Search range upper end ``N``.
    weight_cache, prefix_cache, memoize:
        Individually toggle the three cache layers (all on by default;
        the naive behaviour is all off).
    weight_cache_size:
        Per-layer LRU capacity for cached quantized weights.
    """

    def __init__(
        self,
        model: Module,
        val_images: np.ndarray,
        val_labels: np.ndarray,
        max_bits: int,
        *,
        weight_cache: bool = True,
        prefix_cache: bool = True,
        memoize: bool = True,
        weight_cache_size: int = 32,
    ):
        self.val_images = np.asarray(val_images)
        self.val_labels = np.asarray(val_labels)
        self.max_bits = max_bits
        self.weight_cache = weight_cache
        self.prefix_cache = prefix_cache
        self.memoize = memoize
        self.weight_cache_size = int(weight_cache_size)

        surrogate = clone_module(model)
        quantize_model(surrogate, max_bits=max_bits, act_bits=None)
        surrogate.eval()
        self.surrogate = surrogate
        self.layers = quantized_layers(surrogate)

        self._input_tensor = Tensor(self.val_images)
        # `_applied` mirrors the surrogate's actual bit buffers;
        # `_effective` is the logical state after the last query (they
        # diverge only while memo hits answer queries without applying).
        self._applied: Dict[str, bytes] = {
            name: _bits_signature(layer.bits) for name, layer in self.layers.items()
        }
        self._effective: Dict[str, bytes] = dict(self._applied)
        self._memo: "OrderedDict[Tuple[Tuple[str, bytes], ...], float]" = OrderedDict()
        self._memo_capacity = 4096
        self._weight_caches: Dict[str, "OrderedDict[bytes, Tensor]"] = {
            name: OrderedDict() for name in self.layers
        }
        # Prefix-cache state: execution-ordered segment trace, the
        # segment index owning each quantized layer, and per-segment
        # cached input activations (valid for the currently applied
        # prefix bits; invalidated on any upstream change).
        self._segments: List[_TraceEntry] = []
        self._segment_of: Dict[str, int] = {}
        self._acts: Dict[str, np.ndarray] = {}
        self._trace_ok = False
        if prefix_cache:
            self._build_segments()
        self.stats = self._fresh_stats()
        if weight_cache:
            for name, layer in self.layers.items():
                self._install_weight_cache(name, layer)
        for entry in self._segments:
            self._install_activation_capture(entry.name, entry.module)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_segments(self) -> None:
        """Trace one forward and accept the prefix cache only for
        segment-granular chains.

        Segments come from the model's ``segment_modules()`` protocol
        when present (opaque residual blocks allowed) and fall back to
        all leaf modules otherwise. The suffix from the segment owning
        the first quantized layer onward must be a pure chain — every
        segment consumes exactly the previous segment's output and the
        last segment produces the model output — no segment may run
        twice (weight sharing would alias cached activations), and
        every quantized layer must live inside exactly one traced
        segment. Models that fail the check (undeclared residual
        topologies, functional reshapes between quantized layers) keep
        ``_trace_ok = False`` and always take the full-forward path.
        """
        targets = _declared_segments(self.surrogate)
        if targets is None:
            targets = _leaf_modules(self.surrogate)
        trace, output = _trace_segments(self.surrogate, self.val_images[:1], targets)
        if not trace or output is not trace[-1].output:
            return
        modules = [entry.module for entry in trace]
        if len(set(map(id, modules))) != len(modules):
            return
        quantized_ids = {id(layer): name for name, layer in self.layers.items()}
        positions: Dict[str, int] = {}
        for index, entry in enumerate(trace):
            for member in entry.module.modules():
                name = quantized_ids.get(id(member))
                if name is None:
                    continue
                if name in positions:  # shared across segments: unsafe
                    return
                positions[name] = index
        if len(positions) != len(self.layers):
            return
        first = min(positions.values())
        for index in range(first + 1, len(trace)):
            if trace[index].input is not trace[index - 1].output:
                return
        for entry in trace:  # the trace is validated; free the tensors
            entry.input = entry.output = None
        self._segments = trace
        self._segment_of = positions
        self._trace_ok = True

    def _install_weight_cache(self, name: str, layer: Module) -> None:
        """Shadow ``layer.effective_weight`` with an incremental cache.

        Misses against the bits-keyed LRU are served by *patching*: the
        quantization range is layer-wide and fixed during search (the
        search never touches weights), making each filter row an
        independent function of its own bit-width — so only rows whose
        bits differ from the previously materialised vector are pushed
        through the quantizer, bit-exactly matching a from-scratch
        :func:`~repro.quant.uniform.quantize_per_filter`.
        """
        cache = self._weight_caches[name]
        quantizer = UniformQuantizer.for_weights(layer.weight.data)
        state = {"bits": None, "qdata": None}

        def cached_effective_weight(
            _layer=layer, _cache=cache, _quantizer=quantizer, _state=state
        ):
            if not _layer.weight_quant_enabled:
                return _layer.weight
            self.stats.layer_requests += 1
            key = _bits_signature(_layer.quant_bits)
            hit = _cache.get(key)
            if hit is None:
                bits = _layer.bits
                weight = _layer.weight.data
                previous_bits = _state["bits"]
                if previous_bits is not None:
                    changed = np.flatnonzero(bits != previous_bits)
                    qdata = _state["qdata"].copy()
                    for value in np.unique(bits[changed]):
                        rows = changed[bits[changed] == value]
                        qdata[rows] = _quantizer(weight[rows], int(value))
                    self.stats.layers_patched += 1
                    self.stats.filters_quantized += int(changed.size)
                else:
                    qdata = quantize_per_filter(weight, bits)
                    self.stats.layers_quantized += 1
                    self.stats.filters_quantized += int(bits.size)
                hit = Tensor(qdata)
                _cache[key] = hit
                while len(_cache) > self.weight_cache_size:
                    _cache.popitem(last=False)
            else:
                _cache.move_to_end(key)
            # The served vector becomes the patch baseline for the next
            # miss (search trajectories move in small diffs).
            _state["bits"] = np.frombuffer(key, dtype=np.int64)
            _state["qdata"] = hit.data
            return hit

        layer.effective_weight = cached_effective_weight

    def _install_activation_capture(self, name: str, segment: Module) -> None:
        """Record each segment's input during every forward (full or
        partial), keeping downstream resume points fresh."""
        original = segment.forward

        def capturing_forward(x, _name=name, _orig=original):
            if self._trace_ok:
                self._acts[_name] = x.data
            return _orig(x)

        segment.forward = capturing_forward

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def __call__(self, bits: Mapping[str, np.ndarray]) -> float:
        start = time.perf_counter()
        self.stats.evaluations += 1
        try:
            signatures = {
                name: _bits_signature(layer_bits) for name, layer_bits in bits.items()
            }
            # The memo must key on the state the surrogate would be in
            # after applying this mapping — layers omitted from `bits`
            # keep the vectors of the last *query* (the evaluator is
            # stateful for them, exactly like the naive closure), so
            # their signatures are part of the key too. `_effective` is
            # that logical query state; it can run ahead of `_applied`
            # (the surrogate's actual buffers) when memo hits answer
            # queries without touching the surrogate.
            effective = dict(self._effective)
            effective.update(signatures)
            memo_key = tuple(sorted(effective.items()))
            self._effective = effective
            if self.memoize:
                cached = self._memo.get(memo_key)
                if cached is not None:
                    self._memo.move_to_end(memo_key)
                    self.stats.memo_hits += 1
                    return cached

            # Reconcile the surrogate with the full logical state — a
            # layer may differ because this query provided new bits OR
            # because an earlier memo-hit query moved it logically
            # without a forward (its vector is recovered from the
            # signature bytes).
            changed = [
                name
                for name, signature in effective.items()
                if self._applied.get(name) != signature
            ]
            for name in changed:
                layer_bits = (
                    bits[name]
                    if name in signatures
                    else np.frombuffer(effective[name], dtype=np.int64)
                )
                self.layers[name].set_bits(layer_bits)
                self._applied[name] = effective[name]

            accuracy = self._forward_accuracy(changed)
            if self.memoize:
                self._memo[memo_key] = accuracy
                while len(self._memo) > self._memo_capacity:
                    self._memo.popitem(last=False)
            return accuracy
        finally:
            self.stats.eval_seconds += time.perf_counter() - start

    def _forward_accuracy(self, changed: List[str]) -> float:
        resume = self._resume_position(changed)
        with no_grad():
            if resume is None:
                self.stats.full_forwards += 1
                self.stats.layers_executed += self.stats.num_layers
                logits = self.surrogate(self._input_tensor)
            else:
                skipped = sum(
                    1 for pos in self._segment_of.values() if pos < resume
                )
                self.stats.partial_forwards += 1
                self.stats.segments_skipped += resume
                self.stats.prefix_layers_skipped += skipped
                self.stats.layers_executed += self.stats.num_layers - skipped
                x = Tensor(self._acts[self._segments[resume].name])
                for entry in self._segments[resume:]:
                    x = entry.module(x)
                logits = x
        return F.accuracy(logits, self.val_labels)

    def _resume_position(self, changed: List[str]) -> Optional[int]:
        """Segment index to resume from, or ``None`` for a full forward.

        Valid only when every changed layer lives inside a traced
        segment, a cached input exists for the earliest changed
        segment, and cached activations downstream of the change are
        invalidated first. An opaque segment (residual block) re-runs
        internally in full; everything before it is skipped.
        """
        if not self._trace_ok or not self.prefix_cache:
            return None
        if not changed:
            return None  # nothing moved (memo off): recompute from scratch
        if any(name not in self._segment_of for name in changed):
            return None
        resume = min(self._segment_of[name] for name in changed)
        # Inputs recorded downstream of the change no longer match the
        # new prefix; drop them whether or not resumption is possible.
        for entry in self._segments[resume + 1 :]:
            self._acts.pop(entry.name, None)
        if self._segments[resume].name not in self._acts:
            return None
        return resume

    # ------------------------------------------------------------------
    def _fresh_stats(self) -> EvalStats:
        return EvalStats(
            num_layers=len(self.layers),
            num_filters=sum(layer.num_filters for layer in self.layers.values()),
            num_segments=len(self._segments),
        )

    def reset_stats(self) -> EvalStats:
        """Return the current counters and start a fresh ``EvalStats``."""
        previous = self.stats
        self.stats = self._fresh_stats()
        return previous


def make_naive_weight_quant_evaluator(
    model: Module,
    val_images: np.ndarray,
    val_labels: np.ndarray,
    max_bits: int,
):
    """The uncached reference evaluator (the pre-cache protocol).

    Re-applies ``set_bits`` to every layer and runs a full forward per
    query. Kept as the ground truth the cached engine is tested
    bit-exact against, and for A/B benchmarking.
    """
    val_images = np.asarray(val_images)
    val_labels = np.asarray(val_labels)
    surrogate = clone_module(model)
    quantize_model(surrogate, max_bits=max_bits, act_bits=None)
    surrogate.eval()
    layers = quantized_layers(surrogate)

    def evaluate(bits: Mapping[str, np.ndarray]) -> float:
        for name, layer_bits in bits.items():
            layers[name].set_bits(layer_bits)
        with no_grad():
            logits = surrogate(Tensor(val_images))
        return F.accuracy(logits, val_labels)

    return evaluate
