"""Hypothesis property tests for the threshold search: for arbitrary
score landscapes and evaluator behaviours, the invariants the rest of
the pipeline depends on must hold."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.config import CQConfig
from repro.core.search import BitWidthSearch, assign_bits

score_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(2, 40),
    elements=st.floats(0.0, 10.0, allow_nan=False),
)


def run_search(scores, budget, accuracy_fn, max_bits=4):
    config = CQConfig(
        target_avg_bits=budget, max_bits=max_bits, step=None, t1=0.5,
    )
    return BitWidthSearch(
        {"layer": scores}, {"layer": 7}, accuracy_fn, config
    ).run()


class TestSearchInvariants:
    @given(scores=score_arrays, budget=st.floats(0.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_budget_always_met_with_constant_evaluator(self, scores, budget):
        result = run_search(scores, budget, lambda bits: 1.0)
        assert result.average_bits <= budget + 1e-9

    @given(scores=score_arrays, budget=st.floats(0.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_budget_met_with_zero_evaluator(self, scores, budget):
        result = run_search(scores, budget, lambda bits: 0.0)
        assert result.average_bits <= budget + 1e-9

    @given(
        scores=score_arrays,
        budget=st.floats(0.5, 3.5),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_met_with_random_evaluator(self, scores, budget, seed):
        rng = np.random.default_rng(seed)
        result = run_search(scores, budget, lambda bits: float(rng.random()))
        assert result.average_bits <= budget + 1e-9

    @given(scores=score_arrays, budget=st.floats(0.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_thresholds_sorted(self, scores, budget):
        result = run_search(scores, budget, lambda bits: 0.7)
        assert np.all(np.diff(result.thresholds) >= -1e-12)

    @given(scores=score_arrays, budget=st.floats(0.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_bits_monotone_in_scores(self, scores, budget):
        """Higher-scored filters never receive fewer bits."""
        result = run_search(scores, budget, lambda bits: 0.7)
        bits = result.bit_map["layer"]
        order = np.argsort(scores)
        sorted_bits = bits[order]
        assert np.all(np.diff(sorted_bits) >= 0)

    @given(scores=score_arrays)
    @settings(max_examples=40, deadline=None)
    def test_assignment_consistent_with_thresholds(self, scores):
        result = run_search(scores, 2.0, lambda bits: 0.6)
        recomputed = assign_bits({"layer": scores}, result.thresholds)["layer"]
        np.testing.assert_array_equal(result.bit_map["layer"], recomputed)

    @given(scores=score_arrays, budget=st.floats(0.0, 4.0))
    @settings(max_examples=40, deadline=None)
    def test_bits_within_range(self, scores, budget):
        result = run_search(scores, budget, lambda bits: 0.5)
        bits = result.bit_map["layer"]
        assert np.all(bits >= 0) and np.all(bits <= 4)

    @given(scores=score_arrays)
    @settings(max_examples=20, deadline=None)
    def test_full_budget_keeps_everything_at_max(self, scores):
        result = run_search(scores, 4.0, lambda bits: 1.0)
        np.testing.assert_array_equal(
            result.bit_map["layer"], np.full(len(scores), 4)
        )

    @given(
        scores=score_arrays,
        budget=st.floats(0.0, 4.0),
        seed=st.integers(0, 100),
        t1_relative=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_step_thresholds_non_decreasing(self, scores, budget, seed, t1_relative):
        """A threshold only ever moves up: per ``k``, the recorded step
        positions are non-decreasing across the whole run (Phase 1 raises
        each ``p_k`` in turn; Phase 2 continues raising, never lowers)."""
        rng = np.random.default_rng(seed)
        config = CQConfig(
            target_avg_bits=budget, max_bits=4, t1=0.5, t1_relative=t1_relative
        )
        result = BitWidthSearch(
            {"layer": scores}, {"layer": 7}, lambda bits: float(rng.random()), config
        ).run()
        last_position = {}
        for step in result.steps:
            assert step.threshold >= last_position.get(step.k, 0.0) - 1e-12
            last_position[step.k] = step.threshold

    @given(
        scores=score_arrays,
        budget=st.floats(0.0, 4.0),
        seed=st.integers(0, 100),
        t1_relative=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_evaluations_match_recorded_steps(self, scores, budget, seed, t1_relative):
        """Every evaluation is accounted for: one per recorded step, plus
        the ``t1_relative`` baseline evaluation, plus one final fill-in
        when the search ended without ever evaluating (budget already met
        at the start and no baseline was taken)."""
        rng = np.random.default_rng(seed)
        config = CQConfig(
            target_avg_bits=budget, max_bits=4, t1=0.5, t1_relative=t1_relative
        )
        result = BitWidthSearch(
            {"layer": scores}, {"layer": 7}, lambda bits: float(rng.random()), config
        ).run()
        expected = len(result.steps)
        if t1_relative:
            expected += 1
        elif not result.steps:
            expected += 1  # final evaluation of the untouched thresholds
        assert result.evaluations == expected

    @given(
        scores=score_arrays,
        budget=st.floats(0.5, 3.5),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_budget_met_unless_squeeze_saturated(self, scores, budget, seed):
        """Whenever Phase 2 ran to completion (``p_1`` did not saturate at
        the top of the score axis), the final average bit-width meets the
        budget — for arbitrary evaluator behaviour."""
        rng = np.random.default_rng(seed)
        result = run_search(scores, budget, lambda bits: float(rng.random()))
        max_score = float(np.max(scores))
        if result.thresholds[0] < max_score:
            assert result.average_bits <= budget + 1e-9

    @given(
        scores=score_arrays,
        budget=st.floats(0.5, 3.5),
    )
    @settings(max_examples=30, deadline=None)
    def test_evaluation_count_bounded(self, scores, budget):
        """Auto step bounds the number of accuracy evaluations regardless
        of the score landscape (the paper's efficiency claim)."""
        counter = {"n": 0}

        def evaluator(bits):
            counter["n"] += 1
            return 0.6

        run_search(scores, budget, evaluator)
        # <= 2 phases x 4 thresholds x ~41 positions + baseline + final
        assert counter["n"] <= 2 * 4 * 42 + 2
