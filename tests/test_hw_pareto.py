"""Tests for repro.hw.pareto: frontier extraction, knee, hypervolume."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.pareto import (
    DesignPoint,
    dominated_points,
    hypervolume_2d,
    knee_point,
    pareto_front,
)


def _points(pairs):
    return [DesignPoint(accuracy=a, cost=c, label=str(i)) for i, (a, c) in enumerate(pairs)]


class TestDomination:
    def test_strictly_better_dominates(self):
        better = DesignPoint(accuracy=0.9, cost=1.0)
        worse = DesignPoint(accuracy=0.8, cost=2.0)
        assert better.dominates(worse)
        assert not worse.dominates(better)

    def test_equal_points_do_not_dominate(self):
        a = DesignPoint(accuracy=0.9, cost=1.0)
        b = DesignPoint(accuracy=0.9, cost=1.0)
        assert not a.dominates(b)
        assert not b.dominates(a)

    def test_tradeoff_points_incomparable(self):
        cheap = DesignPoint(accuracy=0.7, cost=1.0)
        accurate = DesignPoint(accuracy=0.9, cost=3.0)
        assert not cheap.dominates(accurate)
        assert not accurate.dominates(cheap)


class TestParetoFront:
    def test_removes_dominated(self):
        points = _points([(0.9, 1.0), (0.8, 2.0), (0.95, 3.0)])
        front = pareto_front(points)
        assert [p.accuracy for p in front] == [0.9, 0.95]

    def test_sorted_by_cost(self):
        points = _points([(0.95, 3.0), (0.7, 0.5), (0.9, 1.0)])
        front = pareto_front(points)
        costs = [p.cost for p in front]
        assert costs == sorted(costs)

    def test_empty_input(self):
        assert pareto_front([]) == []

    def test_dominated_points_is_complement(self):
        points = _points([(0.9, 1.0), (0.8, 2.0), (0.95, 3.0), (0.5, 5.0)])
        front = pareto_front(points)
        rest = dominated_points(points)
        assert len(front) + len(rest) == len(points)
        assert all(any(q.dominates(p) for q in points) for p in rest)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1),
                st.floats(min_value=0.01, max_value=100),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_front_is_mutually_nondominated(self, pairs):
        front = pareto_front(_points(pairs))
        assert front  # at least one point always survives
        for p in front:
            assert not any(q.dominates(p) for q in front)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1),
                st.floats(min_value=0.01, max_value=100),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_every_point_dominated_by_or_on_front(self, pairs):
        points = _points(pairs)
        front = pareto_front(points)
        ids = {id(p) for p in front}
        for p in points:
            assert id(p) in ids or any(q.dominates(p) for q in front)


def _brute_force_front(points):
    """Reference all-pairs O(n^2) frontier (the pre-optimisation code)."""
    front = [p for p in points if not any(q.dominates(p) for q in points)]
    return sorted(front, key=lambda p: (p.cost, -p.accuracy))


class TestParetoFrontMatchesBruteForce:
    # Coarse grids force coordinate collisions, exercising the
    # duplicate-retention and same-cost-group semantics.
    coarse = st.tuples(
        st.integers(min_value=0, max_value=4).map(lambda v: v / 4.0),
        st.integers(min_value=1, max_value=5).map(float),
    )
    fine = st.tuples(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0.01, max_value=100),
    )

    @given(st.lists(st.one_of(coarse, fine), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_identical_to_brute_force(self, pairs):
        points = _points(pairs)
        assert pareto_front(points) == _brute_force_front(points)

    def test_duplicates_all_retained(self):
        points = _points([(0.9, 1.0), (0.9, 1.0), (0.5, 2.0)])
        front = pareto_front(points)
        assert front == [points[0], points[1]]
        # Identity check: both duplicate objects survive, in input order.
        assert front[0] is points[0] and front[1] is points[1]

    def test_same_cost_lower_accuracy_dominated(self):
        points = _points([(0.8, 1.0), (0.9, 1.0)])
        assert pareto_front(points) == [points[1]]

    def test_same_accuracy_higher_cost_dominated(self):
        points = _points([(0.9, 2.0), (0.9, 1.0)])
        assert pareto_front(points) == [points[1]]


class TestKneePoint:
    def test_empty_returns_none(self):
        assert knee_point([]) is None

    def test_single_point_is_its_own_knee(self):
        point = DesignPoint(accuracy=0.9, cost=1.0)
        assert knee_point([point]) is point

    def test_obvious_knee(self):
        # Accuracy saturates after cost 2: the knee is the saturation point.
        points = _points([(0.50, 1.0), (0.90, 2.0), (0.91, 5.0), (0.92, 10.0)])
        knee = knee_point(points)
        assert knee.cost == 2.0

    def test_knee_is_on_front(self):
        points = _points([(0.5, 1.0), (0.9, 2.0), (0.85, 3.0), (0.95, 8.0)])
        knee = knee_point(points)
        assert knee in pareto_front(points)

    def test_two_point_frontier_returns_cheapest(self):
        points = _points([(0.5, 1.0), (0.9, 5.0)])
        knee = knee_point(points)
        assert knee is not None
        assert knee.cost == 1.0

    def test_zero_cost_span_frontier(self):
        # All frontier points share one cost: the frontier collapses to
        # the single best-accuracy point; the chord has no span.
        points = _points([(0.5, 1.0), (0.9, 1.0), (0.7, 1.0)])
        knee = knee_point(points)
        assert knee is not None
        assert knee.accuracy == 0.9 and knee.cost == 1.0

    def test_zero_accuracy_span_frontier(self):
        # Duplicate-coordinate frontier (>2 points after retention):
        # both spans are zero, so the normalisation guard must fire.
        points = _points([(0.8, 2.0)] * 3)
        knee = knee_point(points)
        assert knee is not None
        assert knee.accuracy == 0.8 and knee.cost == 2.0

    def test_degenerate_accuracy_span_multi_cost(self):
        # One accuracy level at several costs: only the cheapest is on
        # the frontier, so the <=2-point branch returns it.
        points = _points([(0.8, 1.0), (0.8, 2.0), (0.8, 3.0)])
        knee = knee_point(points)
        assert knee is not None
        assert knee.cost == 1.0


class TestHypervolume:
    def test_single_point_rectangle(self):
        points = [DesignPoint(accuracy=0.8, cost=2.0)]
        volume = hypervolume_2d(points, reference=(4.0, 0.5))
        assert volume == pytest.approx((4.0 - 2.0) * (0.8 - 0.5))

    def test_dominating_sweep_has_larger_volume(self):
        reference = (10.0, 0.0)
        weak = _points([(0.6, 5.0)])
        strong = _points([(0.6, 5.0), (0.8, 5.0)])  # strictly better point added
        assert hypervolume_2d(strong, reference) > hypervolume_2d(weak, reference)

    def test_points_outside_reference_ignored(self):
        points = [DesignPoint(accuracy=0.4, cost=20.0)]  # costlier than reference
        assert hypervolume_2d(points, reference=(10.0, 0.5)) == 0.0

    def test_union_not_double_counted(self):
        reference = (10.0, 0.0)
        points = _points([(0.5, 2.0), (0.8, 6.0)])
        expected = (10 - 2) * 0.5 + (10 - 6) * (0.8 - 0.5)
        assert hypervolume_2d(points, reference) == pytest.approx(expected)

    def test_reference_dominated_by_no_frontier_point(self):
        # Reference cheaper AND more accurate than everything: no point
        # dominates it, so the covered area is exactly zero.
        points = _points([(0.4, 5.0), (0.6, 8.0)])
        assert hypervolume_2d(points, reference=(2.0, 0.9)) == 0.0

    def test_reference_partially_dominated_mixed_frontier(self):
        # Only the frontier points that dominate the reference count.
        points = _points([(0.8, 2.0), (0.9, 20.0)])  # second is too costly
        volume = hypervolume_2d(points, reference=(10.0, 0.5))
        assert volume == pytest.approx((10.0 - 2.0) * (0.8 - 0.5))

    def test_empty_input_is_zero(self):
        assert hypervolume_2d([], reference=(1.0, 0.0)) == 0.0
