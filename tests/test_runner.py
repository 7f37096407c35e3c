"""Tests for the sweep runner: registry, caching, resume, parallelism.

The correctness properties under test (content-hash cache-resume,
jobs-count invariance, deterministic ordering) are independent of what
a unit computes, so these tests drive the runner through the cheap
units in :mod:`repro.runner.testing` — pool workers must import the
target, hence toy units live in the package, not here.
"""

import json

import pytest

from repro.runner import (
    SweepRunner,
    UnitSpec,
    budget_sweep_units,
    execute_unit,
    figure_unit,
    figure_units,
    resolve_target,
)
from repro.runner.testing import toy_units


def _executions(marker_path):
    if not marker_path.exists():
        return []
    return marker_path.read_text().splitlines()


class TestUnitSpec:
    def test_content_key_is_stable_and_order_independent(self):
        a = UnitSpec("u", "m:f", {"x": 1, "y": 2.0})
        b = UnitSpec("u", "m:f", {"y": 2.0, "x": 1})
        assert a.content_key() == b.content_key()
        assert len(a.content_key()) == 16

    def test_content_key_changes_with_config(self):
        base = UnitSpec("u", "m:f", {"x": 1})
        assert base.content_key() != UnitSpec("u", "m:f", {"x": 2}).content_key()
        assert base.content_key() != UnitSpec("v", "m:f", {"x": 1}).content_key()
        assert base.content_key() != UnitSpec("u", "m:g", {"x": 1}).content_key()

    def test_non_jsonable_params_rejected_before_scheduling(self):
        spec = UnitSpec("u", "m:f", {"x": object()})
        with pytest.raises(TypeError):
            spec.content_key()

    def test_resolve_target(self):
        fn = resolve_target("repro.runner.testing:toy_unit")
        assert fn(3.0, seed=1)["scaled"] == 6.0

    def test_resolve_target_rejects_bad_spelling(self):
        with pytest.raises(ValueError):
            resolve_target("repro.runner.testing.toy_unit")  # missing colon
        with pytest.raises(AttributeError):
            resolve_target("repro.runner.testing:nope")


class TestRegistry:
    def test_figure_units_cover_every_figure(self):
        specs = figure_units(scale="tiny", seed=3)
        assert [s.name for s in specs] == [
            "figure-2",
            "figure-3",
            "figure-4",
            "figure-5",
            "figure-6",
            "figure-7",
            "figure-ablations",
            "figure-granularity",
        ]
        for spec in specs:
            assert spec.params == {"scale": "tiny", "seed": 3}
            assert spec.render.endswith(":render")
            # The targets must actually resolve (figures move around).
            resolve_target(spec.target)
            resolve_target(spec.render)

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            figure_unit("9")

    def test_budget_sweep_units_grid_order(self):
        specs = budget_sweep_units(
            model="mlp", budgets=(1.0, 2.0), seeds=(0, 1), scale="tiny"
        )
        grid = [(s.params["budget"], s.params["seed"]) for s in specs]
        assert grid == [(1.0, 0), (1.0, 1), (2.0, 0), (2.0, 1)]
        assert all(
            s.target == "repro.experiments.budget_sweep:run_point" for s in specs
        )
        # Distinct grid points must have distinct cache identities.
        assert len({s.content_key() for s in specs}) == len(specs)


class TestExecuteUnit:
    def test_executes_and_renders(self):
        spec = toy_units([2.0], seeds=[1])[0]
        payload = execute_unit(spec)
        assert payload["result"]["scaled"] == 4.0
        assert payload["rendered"] == "toy value=2 scaled=4"

    def test_accepts_spec_as_dict(self):
        spec = toy_units([2.0], seeds=[1])[0]
        assert execute_unit(dict(spec.__dict__)) == execute_unit(spec)

    def test_per_unit_seeding_is_reproducible(self):
        spec = toy_units([3.0])[0]
        assert execute_unit(spec)["result"]["noise"] == execute_unit(spec)["result"]["noise"]

    def test_different_units_get_different_streams(self):
        a, b = toy_units([3.0, 4.0])
        assert execute_unit(a)["result"]["noise"] != execute_unit(b)["result"]["noise"]


class TestSweepRunnerCache:
    def test_first_run_computes_second_run_hits(self, tmp_path):
        marker = tmp_path / "marker.txt"
        specs = toy_units([1.0, 2.0, 3.0], marker_path=str(marker))
        runner = SweepRunner(cache_dir=tmp_path / "cache", jobs=1)

        first = runner.run(specs)
        assert (first.hits, first.misses) == (0, 3)
        assert len(_executions(marker)) == 3

        second = runner.run(specs)
        assert (second.hits, second.misses) == (3, 0)
        assert len(_executions(marker)) == 3  # nothing re-ran
        assert second.results == first.results

    def test_killed_sweep_resumes_only_missing_points(self, tmp_path):
        """The core resume contract: after a partial run, a restart over
        the full grid re-runs only the grid points with no archived
        result."""
        marker = tmp_path / "marker.txt"
        runner = SweepRunner(cache_dir=tmp_path / "cache", jobs=1)

        partial = toy_units([1.0, 2.0], marker_path=str(marker))
        runner.run(partial)
        assert len(_executions(marker)) == 2

        full = toy_units([1.0, 2.0, 3.0, 4.0], marker_path=str(marker))
        report = runner.run(full)
        assert (report.hits, report.misses) == (2, 2)
        executed = _executions(marker)
        assert len(executed) == 4
        assert executed[2:] == ["3.0:0", "4.0:0"]  # only the new points ran

    def test_config_change_is_a_cache_miss(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path / "cache", jobs=1)
        runner.run(toy_units([1.0], seeds=[0]))
        report = runner.run(toy_units([1.0], seeds=[1]))
        assert (report.hits, report.misses) == (0, 1)

    def test_truncated_cache_file_treated_as_miss(self, tmp_path):
        """A sweep killed mid-write must not poison the resume."""
        runner = SweepRunner(cache_dir=tmp_path / "cache", jobs=1)
        (spec,) = toy_units([1.0])
        runner.run([spec])
        path = runner.result_path(spec)
        path.write_text(path.read_text()[: 40])  # simulate truncation
        report = runner.run([spec])
        assert (report.hits, report.misses) == (0, 1)
        # The re-run repaired the archive.
        assert json.loads(path.read_text())["payload"]["result"]["value"] == 1.0

    def test_archive_is_self_describing_strict_json(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path / "cache", jobs=1)
        (spec,) = toy_units([2.5], seeds=[1])
        runner.run([spec])

        def _reject(token):
            raise AssertionError(f"non-standard JSON token {token!r}")

        document = json.loads(
            runner.result_path(spec).read_text(), parse_constant=_reject
        )
        assert document["unit"] == spec.name
        assert document["target"] == spec.target
        assert document["params"]["value"] == 2.5
        assert document["key"] == spec.content_key()

    def test_unit_failure_propagates(self, tmp_path):
        spec = UnitSpec(
            name="toy-fail",
            target="repro.runner.testing:toy_unit",
            params={"value": 1.0, "fail": True},
        )
        runner = SweepRunner(cache_dir=tmp_path / "cache", jobs=1)
        with pytest.raises(RuntimeError):
            runner.run([spec])
        # Nothing was archived for the failed unit.
        assert not runner.result_path(spec).exists()

    def test_units_completed_before_a_failure_stay_archived(self, tmp_path):
        """Results are archived as each unit completes, so work done
        before a crash (or kill) survives for the resume."""
        good = toy_units([1.0, 2.0])
        bad = UnitSpec(
            name="toy-fail",
            target="repro.runner.testing:toy_unit",
            params={"value": 9.0, "fail": True},
        )
        runner = SweepRunner(cache_dir=tmp_path / "cache", jobs=1)
        with pytest.raises(RuntimeError):
            runner.run(good + [bad])
        for spec in good:
            assert runner.result_path(spec).exists()
        # The restarted sweep (minus the bad unit) is all hits.
        report = runner.run(good)
        assert (report.hits, report.misses) == (2, 0)


class TestSweepRunnerParallel:
    def test_pool_matches_inline_byte_for_byte(self, tmp_path):
        """Acceptance criterion: --jobs 2 writes byte-identical result
        JSON to --jobs 1 on the same grid."""
        specs = toy_units([1.0, 2.0, 3.0, 4.0], seeds=[0, 1])
        inline = SweepRunner(cache_dir=tmp_path / "inline", jobs=1)
        pooled = SweepRunner(cache_dir=tmp_path / "pooled", jobs=2)
        report_inline = inline.run(specs)
        report_pooled = pooled.run(specs)
        assert report_inline.results == report_pooled.results
        for spec in specs:
            assert (
                inline.result_path(spec).read_bytes()
                == pooled.result_path(spec).read_bytes()
            )

    def test_pool_outcomes_in_spec_order(self, tmp_path):
        specs = toy_units([5.0, 1.0, 3.0])
        report = SweepRunner(cache_dir=tmp_path / "cache", jobs=2).run(specs)
        assert [o.spec.name for o in report.outcomes] == [s.name for s in specs]
        assert [o.result["value"] for o in report.outcomes] == [5.0, 1.0, 3.0]

    def test_pool_resume_mixes_hits_and_misses(self, tmp_path):
        runner = SweepRunner(cache_dir=tmp_path / "cache", jobs=2)
        runner.run(toy_units([1.0, 2.0]))
        report = runner.run(toy_units([1.0, 2.0, 3.0, 4.0]))
        assert (report.hits, report.misses) == (2, 2)
        assert [o.cached for o in report.outcomes] == [True, True, False, False]


class TestBudgetSweepHarness:
    def test_point_from_payload_roundtrip(self):
        from repro.experiments.budget_sweep import BudgetPoint, point_from_payload
        from repro.experiments.io import _jsonable

        point = BudgetPoint(
            model="mlp",
            dataset="synth10",
            scale="tiny",
            budget=2.0,
            seed=0,
            fp_accuracy=0.9,
            accuracy=0.8,
            avg_bits=1.9,
            storage_kib=1.5,
            energy_uj=0.2,
            latency_us=0.1,
        )
        assert point_from_payload(_jsonable(point)) == point

    def test_design_points_skip_archived_nonfinite(self):
        from repro.experiments.budget_sweep import BudgetPoint, design_points

        good = BudgetPoint("m", "d", "tiny", 2.0, 0, 0.9, 0.8, 1.9, 1.5, 0.2, 0.1)
        bad = BudgetPoint("m", "d", "tiny", 3.0, 0, 0.9, None, 1.9, 1.5, 0.2, 0.1)
        points = design_points([good, bad], cost="storage_kib")
        assert len(points) == 1
        assert points[0].accuracy == 0.8
        assert points[0].label == "B=2 seed=0"

    def test_render_empty_sweep(self):
        from repro.experiments.budget_sweep import BudgetSweepResult, render

        text = render(BudgetSweepResult(points=[]))
        assert "no points" in text


class TestFrontierReport:
    def test_report_lists_frontier_and_knee(self):
        from repro.hw.pareto import DesignPoint
        from repro.hw.report import frontier_report

        points = [
            DesignPoint(accuracy=0.5, cost=1.0, label="a"),
            DesignPoint(accuracy=0.9, cost=2.0, label="b"),
            DesignPoint(accuracy=0.91, cost=8.0, label="c"),
            DesignPoint(accuracy=0.4, cost=5.0, label="worst"),
        ]
        text = frontier_report(points, cost_label="storage (KiB)")
        assert "worst" not in text  # dominated point not listed
        assert "<-- knee" in text
        assert "frontier: 3/4 points non-dominated" in text
        assert "knee: b" in text

    def test_report_empty(self):
        from repro.hw.report import frontier_report

        assert "no design points" in frontier_report([])
