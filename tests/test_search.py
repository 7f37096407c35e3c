"""Tests for the bit-width threshold search (Sec. III-C)."""

import numpy as np
import pytest

from repro.core.config import CQConfig
from repro.core.search import BitWidthSearch, assign_bits


class TestAssignBits:
    def test_basic_grouping(self):
        scores = {"layer": np.array([0.5, 1.5, 2.5, 3.5, 4.5])}
        thresholds = np.array([1.0, 2.0, 3.0, 4.0])
        bits = assign_bits(scores, thresholds)["layer"]
        np.testing.assert_array_equal(bits, [0, 1, 2, 3, 4])

    def test_score_equal_to_threshold_included(self):
        scores = {"layer": np.array([2.0])}
        bits = assign_bits(scores, np.array([1.0, 2.0, 3.0]))["layer"]
        assert bits[0] == 2  # p_1 and p_2 are both <= score

    def test_all_zero_thresholds_gives_max_bits(self):
        scores = {"layer": np.array([0.0, 5.0])}
        bits = assign_bits(scores, np.zeros(4))["layer"]
        np.testing.assert_array_equal(bits, [4, 4])

    def test_thresholds_above_all_scores_prune_everything(self):
        scores = {"layer": np.array([1.0, 2.0])}
        bits = assign_bits(scores, np.full(4, 100.0))["layer"]
        np.testing.assert_array_equal(bits, [0, 0])

    def test_unsorted_thresholds_raise(self):
        with pytest.raises(ValueError):
            assign_bits({"a": np.array([1.0])}, np.array([2.0, 1.0]))

    def test_multiple_layers_share_thresholds(self):
        scores = {"a": np.array([0.5]), "b": np.array([2.5])}
        bits = assign_bits(scores, np.array([1.0, 2.0]))
        assert bits["a"][0] == 0
        assert bits["b"][0] == 2


def make_search(evaluate_fn, config=None, scores=None):
    scores = scores if scores is not None else {
        "layer1": np.linspace(0.0, 10.0, 20),
        "layer2": np.linspace(0.0, 8.0, 10),
    }
    weights = {name: 5 for name in scores}
    config = config or CQConfig(target_avg_bits=2.0, max_bits=4, step=0.5)
    return BitWidthSearch(scores, weights, evaluate_fn, config)


class TestBitWidthSearch:
    def test_budget_respected_with_tolerant_evaluator(self):
        search = make_search(lambda bits: 1.0)  # accuracy never drops
        result = search.run()
        assert result.average_bits <= 2.0

    def test_budget_respected_with_fragile_evaluator(self):
        """Accuracy collapses immediately -> thresholds stop early, squeeze
        phase must still reach the budget."""
        search = make_search(lambda bits: 0.0)
        result = search.run()
        assert result.average_bits <= 2.0

    def test_thresholds_non_decreasing(self):
        rng = np.random.default_rng(0)
        search = make_search(lambda bits: float(rng.random()))
        result = search.run()
        assert np.all(np.diff(result.thresholds) >= -1e-12)

    def test_trivial_budget_no_search(self):
        config = CQConfig(target_avg_bits=4.0, max_bits=4, step=0.5)
        search = make_search(lambda bits: 1.0, config=config)
        result = search.run()
        # initial avg == max_bits == budget: nothing to do
        assert result.average_bits == pytest.approx(4.0)
        np.testing.assert_array_equal(result.thresholds, np.zeros(4))

    def test_trace_records_every_evaluation(self):
        calls = []

        def evaluator(bits):
            calls.append(1)
            return 1.0

        result = make_search(evaluator).run()
        assert result.evaluations == len(calls)
        assert len(result.steps) >= result.evaluations - 1  # final extra eval allowed

    def test_trace_phases_ordered(self):
        result = make_search(lambda bits: 0.0).run()
        phases = [step.phase for step in result.steps]
        if "squeeze" in phases:
            first_squeeze = phases.index("squeeze")
            assert all(p == "squeeze" for p in phases[first_squeeze:])

    def test_prune_phase_respects_targets(self):
        """With an evaluator that tracks the pruned fraction, p_1 stops
        once accuracy < T1."""
        scores = {"layer": np.linspace(0, 10, 100)}
        weights = {"layer": 1}
        config = CQConfig(target_avg_bits=0.5, max_bits=4, step=0.5, t1=0.5, decay=0.8)

        def evaluator(bits):
            pruned = float((bits["layer"] == 0).mean())
            return 1.0 - pruned  # accuracy falls as pruning grows

        result = BitWidthSearch(scores, weights, evaluator, config).run()
        prune_steps = [s for s in result.steps if s.phase == "prune" and s.k == 1]
        assert prune_steps, "p_1 was never moved"
        # all but the last step must satisfy the target
        for step in prune_steps[:-1]:
            assert step.accuracy >= step.target_accuracy or step.avg_bits <= 0.5

    def test_target_decay_between_thresholds(self):
        result = make_search(lambda bits: 0.0).run()
        targets = {}
        for step in result.steps:
            targets.setdefault(step.k, step.target_accuracy)
        ks = sorted(targets)
        for k1, k2 in zip(ks, ks[1:]):
            assert targets[k2] == pytest.approx(targets[k1] * 0.8 ** (k2 - k1))

    def test_final_accuracy_populated(self):
        result = make_search(lambda bits: 0.75).run()
        assert result.final_accuracy == pytest.approx(0.75)

    def test_bit_map_layers_match_scores(self):
        result = make_search(lambda bits: 1.0).run()
        assert set(result.bit_map.layers()) == {"layer1", "layer2"}

    def test_empty_scores_raise(self):
        with pytest.raises(ValueError):
            BitWidthSearch({}, {}, lambda bits: 1.0, CQConfig())

    def test_non_1d_scores_raise(self):
        with pytest.raises(ValueError):
            BitWidthSearch(
                {"a": np.zeros((2, 2))}, {"a": 1}, lambda bits: 1.0, CQConfig()
            )

    def test_zero_budget_prunes_everything(self):
        config = CQConfig(target_avg_bits=0.0, max_bits=4, step=1.0)
        search = make_search(lambda bits: 1.0, config=config)
        result = search.run()
        assert result.average_bits == pytest.approx(0.0)

    def test_trace_for_threshold_helper(self):
        result = make_search(lambda bits: 0.0).run()
        for k in range(1, 5):
            steps = result.trace_for_threshold(k)
            assert all(step.k == k for step in steps)

    def test_identical_scores_single_group(self):
        """All filters identical -> they all land in the same bit group."""
        scores = {"layer": np.full(10, 5.0)}
        weights = {"layer": 2}
        config = CQConfig(target_avg_bits=3.0, max_bits=4, step=0.5)
        result = BitWidthSearch(scores, weights, lambda bits: 1.0, config).run()
        assert len(np.unique(result.bit_map["layer"])) == 1

    def test_search_deterministic(self):
        r1 = make_search(lambda bits: float(np.sum(bits["layer1"])) % 2).run()
        r2 = make_search(lambda bits: float(np.sum(bits["layer1"])) % 2).run()
        np.testing.assert_array_equal(r1.thresholds, r2.thresholds)

    def test_average_bits_monotone_in_budget(self, tiny_dataset, trained_mlp):
        """One importance scoring, searched at rising budgets: a larger
        budget never yields a smaller average bit-width."""
        from dataclasses import replace

        from repro.core.pipeline import ClassBasedQuantizer

        base = CQConfig(
            max_bits=4, act_bits=None, step=0.5, samples_per_class=4,
            search_batch_size=40,
        )
        importance = ClassBasedQuantizer(base).compute_importance(trained_mlp, tiny_dataset)
        bits = [
            ClassBasedQuantizer(replace(base, target_avg_bits=budget))
            .search_bit_widths(trained_mlp, tiny_dataset, importance)
            .average_bits
            for budget in (1.0, 2.0, 3.0)
        ]
        assert bits[0] <= 1.0 + 1e-9
        assert all(a <= b + 1e-9 for a, b in zip(bits, bits[1:]))


class TestSearchConfigValidation:
    def test_bad_t1(self):
        with pytest.raises(ValueError):
            CQConfig(t1=0.0)

    def test_bad_decay(self):
        with pytest.raises(ValueError):
            CQConfig(decay=1.5)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            CQConfig(step=0.0)

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            CQConfig(target_avg_bits=9.0, max_bits=4)

    def test_bad_max_bits(self):
        with pytest.raises(ValueError):
            CQConfig(max_bits=0)

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            CQConfig(alpha=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("search_batch_size", 0),
            ("refine_batch_size", 0),
            ("samples_per_class", 0),
            ("temperature", 0.0),
        ],
    )
    def test_bad_sizes_fail_at_construction(self, field, value):
        # Each would otherwise fail only after importance scoring,
        # search and build have run.
        with pytest.raises(ValueError, match=field):
            CQConfig(**{field: value})
