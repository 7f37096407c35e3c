"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main


class TestListingCommands:
    def test_models_lists_registry(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "vgg-small" in out
        assert "resnet20-x5" in out

    def test_datasets_lists_presets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "synth10" in out and "synth100" in out

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_errors(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["quantize", "--model", "alexnet"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "9"])

    def test_granularity_figure_registered(self):
        # Bad scale still proves the figure name parses.
        with pytest.raises(SystemExit):
            main(["figure", "granularity", "--scale", "bogus"])

    def test_cost_command_registered(self):
        with pytest.raises(SystemExit):
            main(["cost", "--model", "alexnet"])

    def test_sweep_command_registered(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--model", "alexnet"])

    def test_serve_requires_artifact(self):
        with pytest.raises(SystemExit):
            main(["serve"])

    def test_predict_requires_artifact_and_input(self):
        with pytest.raises(SystemExit):
            main(["predict"])
        with pytest.raises(SystemExit):
            main(["predict", "--artifact", "model.cqw"])


class TestFigureAll:
    def test_figure_requires_number_or_all(self, capsys):
        assert main(["figure"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_figure_rejects_number_and_all(self, capsys):
        assert main(["figure", "3", "--all"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_figure_all_runs_units_through_cache(self, capsys, tmp_path, monkeypatch):
        # Swap the (expensive) figure units for toy units: this tests
        # the CLI wiring — runner invocation, rendering, cache summary.
        import repro.runner
        from repro.runner.testing import toy_units

        monkeypatch.setattr(
            repro.runner,
            "figure_units",
            lambda scale, seed: toy_units([1.0, 2.0], seeds=[seed]),
        )
        code = main(["figure", "--all", "--jobs", "1", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "=== toy-v1-s0 (computed) ===" in out
        assert "toy value=2 scaled=2" in out
        assert "results cache: 0 hits, 2 misses" in out

        code = main(["figure", "--all", "--jobs", "1", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "=== toy-v1-s0 (cached) ===" in out
        assert "results cache: 2 hits, 0 misses" in out


class TestSweepArguments:
    def test_bad_budget_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--budgets", "fast,slow"])

    def test_empty_seed_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--seeds", ","])


_TRACE_CHOICES = ("uniform", "poisson", "bursty", "diurnal", "backlog")
_BACKENDS = ("float", "integer")

#: Every option of the serving commands, keyed by its option strings
#: (the positional by its dest): (action kind, dest, type, default,
#: choices, required, nargs). Help texts are free to change; nothing
#: else is.
SERVING_CLI_SNAPSHOT = {
    "serve": {
        ("-h", "--help"): ("_HelpAction", "help", None, "==SUPPRESS==", None, False, 0),
        ("--artifact",): ("_StoreAction", "artifact", None, None, None, True, None),
        ("--requests",): ("_StoreAction", "requests", "int", 64, None, False, None),
        ("--concurrency",): ("_StoreAction", "concurrency", "int", 4, None, False, None),
        ("--batch-window-ms",): ("_StoreAction", "batch_window_ms", "float", 2.0, None, False, None),
        ("--max-batch",): ("_StoreAction", "max_batch", "int", 16, None, False, None),
        ("--engines",): ("_StoreAction", "engines", "int", 1, None, False, None),
        ("--processes",): ("_StoreAction", "processes", "int", 0, None, False, None),
        ("--repeat",): ("_StoreAction", "repeat", "int", 1, None, False, None),
        ("--no-verify",): ("_StoreTrueAction", "no_verify", None, False, None, False, 0),
        ("--trace",): ("_StoreAction", "trace", None, "backlog", _TRACE_CHOICES, False, None),
        ("--rate",): ("_StoreAction", "rate", "float", 200.0, None, False, None),
        ("--trace-seed",): ("_StoreAction", "trace_seed", "int", 0, None, False, None),
        ("--burst-factor",): ("_StoreAction", "burst_factor", "float", 8.0, None, False, None),
        ("--duty",): ("_StoreAction", "duty", "float", 0.2, None, False, None),
        ("--slo-ms",): ("_StoreAction", "slo_ms", "float", None, None, False, None),
        ("--autoscale",): ("_StoreTrueAction", "autoscale", None, False, None, False, 0),
        ("--max-engines",): ("_StoreAction", "max_engines", "int", 4, None, False, None),
        ("--chaos",): ("_StoreTrueAction", "chaos", None, False, None, False, 0),
        ("--backend",): ("_StoreAction", "backend", None, "float", _BACKENDS, False, None),
    },
    "gateway": {
        ("-h", "--help"): ("_HelpAction", "help", None, "==SUPPRESS==", None, False, 0),
        "artifacts": ("_StoreAction", "artifacts", None, None, None, True, "+"),
        ("--host",): ("_StoreAction", "host", None, "127.0.0.1", None, False, None),
        ("--port",): ("_StoreAction", "port", "int", 8707, None, False, None),
        ("--backend",): ("_StoreAction", "backend", None, "float", _BACKENDS, False, None),
        ("--engines",): ("_StoreAction", "engines", "int", 1, None, False, None),
        ("--autoscale",): ("_StoreTrueAction", "autoscale", None, False, None, False, 0),
        ("--max-engines",): ("_StoreAction", "max_engines", "int", 4, None, False, None),
        ("--budget",): ("_StoreAction", "budget", "int", 256, None, False, None),
        ("--max-pending",): ("_StoreAction", "max_pending", "int", None, None, False, None),
        ("--batch-window-ms",): ("_StoreAction", "batch_window_ms", "float", 2.0, None, False, None),
        ("--max-batch",): ("_StoreAction", "max_batch", "int", 16, None, False, None),
        ("--preload",): ("_StoreTrueAction", "preload", None, False, None, False, 0),
    },
    "predict": {
        ("-h", "--help"): ("_HelpAction", "help", None, "==SUPPRESS==", None, False, 0),
        ("--artifact",): ("_StoreAction", "artifact", None, None, None, False, None),
        ("--url",): ("_StoreAction", "url", None, None, None, False, None),
        ("--input",): ("_StoreAction", "input", None, None, None, True, None),
        ("--key",): ("_StoreAction", "key", None, "images", None, False, None),
        ("--output",): ("_StoreAction", "output", None, None, None, False, None),
        ("--max-batch",): ("_StoreAction", "max_batch", "int", 32, None, False, None),
        ("--backend",): ("_StoreAction", "backend", None, "float", _BACKENDS, False, None),
    },
}


class TestServingFlagSnapshot:
    """The serve, gateway and predict options are a public surface:
    names, kinds, types, defaults and choices stay exactly as pinned,
    whichever helper defines them."""

    @staticmethod
    def _options(command):
        import argparse

        from repro.cli import _build_parser

        (subparsers,) = [
            action
            for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        return {
            tuple(action.option_strings) or action.dest: (
                type(action).__name__,
                action.dest,
                None if action.type is None else action.type.__name__,
                action.default,
                None if action.choices is None else tuple(action.choices),
                action.required,
                action.nargs,
            )
            for action in subparsers.choices[command]._actions
        }

    @pytest.mark.parametrize("command", sorted(SERVING_CLI_SNAPSHOT))
    def test_options_match_snapshot(self, command):
        assert self._options(command) == SERVING_CLI_SNAPSHOT[command]

    @pytest.mark.parametrize("command", sorted(SERVING_CLI_SNAPSHOT))
    def test_help_formats(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert "--backend" in capsys.readouterr().out


class TestServingConfigFromFlags:
    def test_serving_flags_build_the_config(self):
        from repro.cli import _build_parser, _serve_fields
        from repro.serve import AutoscalePolicy, ServeConfig

        def config(*argv):
            return ServeConfig(**_serve_fields(_build_parser().parse_args(argv)))

        assert config("serve", "--artifact", "m.cqw") == ServeConfig()
        assert config("gateway", "m=m.cqw") == ServeConfig()
        assert config(
            "serve", "--artifact", "m.cqw", "--processes", "2", "--autoscale",
            "--max-engines", "3", "--batch-window-ms", "0.5",
        ) == ServeConfig(
            batch_window_s=0.0005,
            pool="process",
            workers=2,
            autoscale=AutoscalePolicy(min_engines=2, max_engines=3),
        )
        assert config(
            "gateway", "m=m.cqw", "--engines", "2", "--max-pending", "8"
        ) == ServeConfig(engines=2, max_pending=8)
        assert config("predict", "--input", "x.npz", "--backend", "integer") == (
            ServeConfig(max_batch_size=32, backend="integer")
        )


@pytest.fixture
def preset_artifact(tmp_path, quantized_mlp_factory):
    """A serving artifact of an untrained tiny-scale MLP preset on disk.

    The geometry matches the ``synth10``/``tiny`` preset exactly, so
    ``repro serve`` can regenerate replay traffic from the manifest —
    without the (slow) pretrain+pipeline producer path.
    """
    from repro.experiments.presets import get_scale
    from repro.serve import save_artifact

    model, manifest = quantized_mlp_factory(
        seed=0, bits_seed=5, num_classes=10, image_size=get_scale("tiny").image_size
    )
    path = tmp_path / "mlp.cqw"
    save_artifact(path, model, manifest)
    return path


class TestServeCommand:
    def test_serve_replays_verifies_and_reports_cache(self, capsys, preset_artifact):
        code = main(
            [
                "serve",
                "--artifact", str(preset_artifact),
                "--requests", "8",
                "--concurrency", "2",
                "--repeat", "2",
                "--max-batch", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "round 1 [backlog x2 clients, seed 0]: 8 requests" in out
        assert "round 2 [backlog x2 clients, seed 0]: 8 requests" in out
        assert out.count("parity: OK (8 requests bit-exact)") == 2
        # Second engine start hits the content-hash artifact cache.
        assert "artifact cache: 1 hits, 1 misses" in out

    def test_serve_multi_engine_fans_out_with_parity(self, capsys, preset_artifact):
        code = main(
            [
                "serve",
                "--artifact", str(preset_artifact),
                "--requests", "8",
                "--concurrency", "4",
                "--engines", "2",
                "--max-batch", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "across 2 engine(s)" in out
        assert "parity: OK (8 requests bit-exact)" in out
        # One parse+build; the second engine's model is a leased clone.
        assert "1 misses" in out and "2 leases" in out

    def test_serve_chaos_on_a_fixed_pool(self, capsys, preset_artifact):
        """A fixed artifact-backed pool is supervised: --chaos no longer
        needs --autoscale or --processes, and nothing is dropped."""
        code = main(
            [
                "serve",
                "--artifact", str(preset_artifact),
                "--requests", "64",
                "--trace", "poisson",
                "--rate", "2000",
                "--engines", "2",
                "--chaos",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos: killed engine" in out
        assert "parity: OK (64 requests bit-exact)" in out
        assert "64 completed, 0 errors" in out and "1 deaths" in out

    def test_serve_rejects_conflicting_fanout(self, capsys, preset_artifact):
        code = main(
            [
                "serve",
                "--artifact", str(preset_artifact),
                "--processes", "2",
                "--engines", "2",
            ]
        )
        assert code == 2
        assert "leave engines at 1" in capsys.readouterr().err

    def test_serve_rejects_bad_engine_count(self, capsys, preset_artifact):
        code = main(["serve", "--artifact", str(preset_artifact), "--engines", "0"])
        assert code == 2
        assert "--engines" in capsys.readouterr().err

    def test_serve_rejects_bad_concurrency(self, capsys, preset_artifact):
        code = main(
            ["serve", "--artifact", str(preset_artifact), "--concurrency", "0"]
        )
        assert code == 2
        assert "serve: --concurrency must be >= 1" in capsys.readouterr().err

    def test_serve_autoscale_needs_an_open_loop_trace(self, capsys, preset_artifact):
        code = main(["serve", "--artifact", str(preset_artifact), "--chaos"])
        assert code == 2
        assert "need an open-loop --trace" in capsys.readouterr().err

    def test_serve_reports_artifact_byte_breakdown(self, capsys, preset_artifact):
        code = main(
            ["serve", "--artifact", str(preset_artifact), "--requests", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "payload" in out and "sidecar" in out and "float32" in out

    def test_serve_missing_artifact_errors(self, tmp_path, capsys):
        assert main(["serve", "--artifact", str(tmp_path / "nope.cqw")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("serve: ") and "nope.cqw" in err

    def test_serve_corrupt_artifact_exits_2(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.cqw"
        corrupt.write_bytes(b"not an artifact")
        assert main(["serve", "--artifact", str(corrupt)]) == 2
        assert capsys.readouterr().err == "serve: not a CQW1 bitstream\n"


class TestPredictCommand:
    def test_predict_batch_from_npz(self, capsys, preset_artifact, tmp_path):
        rng = np.random.default_rng(0)
        batch = tmp_path / "batch.npz"
        np.savez(batch, images=rng.standard_normal((3, 3, 16, 16)))
        out_path = tmp_path / "predictions.npz"
        code = main(
            [
                "predict",
                "--artifact", str(preset_artifact),
                "--input", str(batch),
                "--output", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sample 0: class" in out
        assert "predicted 3 samples" in out
        with np.load(out_path) as archive:
            assert archive["logits"].shape == (3, 10)
            assert archive["labels"].shape == (3,)

    def test_predict_missing_key_errors(self, capsys, preset_artifact, tmp_path):
        batch = tmp_path / "batch.npz"
        np.savez(batch, pictures=np.zeros((2, 3, 16, 16)), other=np.zeros(3))
        assert main(
            ["predict", "--artifact", str(preset_artifact), "--input", str(batch)]
        ) == 2
        assert "no array 'images'" in capsys.readouterr().err

    def test_predict_rejects_single_example(self, capsys, preset_artifact, tmp_path):
        batch = tmp_path / "one.npy"
        np.save(batch, np.zeros(7))
        assert main(
            ["predict", "--artifact", str(preset_artifact), "--input", str(batch)]
        ) == 2
        assert "expected a batch" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content,message",
        [
            (None, "No such file"),
            (b"not an array", "batch.npz is not an .npy/.npz batch"),
            (b"PK\x03\x04truncated", "not a zip file"),
        ],
        ids=["missing", "garbage", "truncated-npz"],
    )
    def test_predict_unreadable_input_exits_2(
        self, capsys, preset_artifact, tmp_path, content, message
    ):
        batch = tmp_path / "batch.npz"
        if content is not None:
            batch.write_bytes(content)
        assert main(
            ["predict", "--artifact", str(preset_artifact), "--input", str(batch)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("predict: ") and message in err
        assert "allow_pickle" not in err

    @pytest.mark.parametrize(
        "content,message",
        [(None, "model.cqw"), (b"not an artifact", "not a CQW1 bitstream")],
        ids=["missing", "corrupt"],
    )
    def test_predict_unreadable_artifact_exits_2(
        self, capsys, tmp_path, content, message
    ):
        artifact = tmp_path / "model.cqw"
        if content is not None:
            artifact.write_bytes(content)
        batch = tmp_path / "batch.npz"
        np.savez(batch, images=np.zeros((2, 3, 16, 16)))
        assert main(
            ["predict", "--artifact", str(artifact), "--input", str(batch)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("predict: ") and message in err


class TestGatewayCommand:
    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--engines", "0"], "engines must be >= 1, got 0"),
            (
                ["--autoscale", "--engines", "5", "--max-engines", "2"],
                "max_engines (2) must be >= min_engines (5)",
            ),
        ],
        ids=["no-engines", "ceiling-below-floor"],
    )
    def test_bad_fan_out_exits_2(self, capsys, flags, message):
        assert main(["gateway", "m=m.cqw", "--port", "0", *flags]) == 2
        assert capsys.readouterr().err == f"gateway: {message}\n"

    def test_preloading_a_missing_artifact_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.cqw"
        assert main(["gateway", f"m={missing}", "--port", "0", "--preload"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("gateway: ") and "nope.cqw" in err


@pytest.mark.slow
class TestCostCommand:
    def test_cost_mlp_end_to_end(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.presets as presets

        monkeypatch.setattr(presets, "_CACHE_DIR", tmp_path / "cache")
        presets.clear_caches()
        code = main(
            [
                "cost",
                "--model", "mlp",
                "--dataset", "synth10",
                "--scale", "tiny",
                "--bits", "2.0",
                "--act-bits", "2",
                "--refine-epochs", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-layer hardware cost" in out
        assert "arrangement cost comparison" in out
        assert "uniform" in out


@pytest.mark.slow
class TestSweepCommand:
    def test_sweep_end_to_end_resumes_and_is_jobs_invariant(
        self, capsys, tmp_path, monkeypatch
    ):
        import repro.experiments.presets as presets
        from repro.runner import SweepRunner, budget_sweep_units

        # Env (not a module monkeypatch) so the isolation reaches pool
        # workers under any multiprocessing start method.
        monkeypatch.setenv("REPRO_PRETRAINED_CACHE", str(tmp_path / "pretrained"))
        presets.clear_caches()
        argv = [
            "sweep",
            "--model", "mlp",
            "--dataset", "synth10",
            "--scale", "tiny",
            "--budgets", "1.5,2.5",
            "--seeds", "0",
            "--refine-epochs", "1",
            "--jobs", "2",
            "--cache-dir", str(tmp_path / "results"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "budget sweep — mlp on synth10 (tiny)" in out
        assert "accuracy-cost frontier" in out
        assert "results cache: 0 hits, 2 misses" in out

        # Killed-and-restarted semantics: the second invocation finds
        # every grid point archived and re-runs nothing.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "results cache: 2 hits, 0 misses" in out

        # Jobs-count invariance: a fresh --jobs 1 sweep of the same
        # grid archives byte-identical result JSON.
        specs = budget_sweep_units(
            model="mlp",
            dataset="synth10",
            budgets=(1.5, 2.5),
            seeds=(0,),
            scale="tiny",
            refine_epochs=1,
        )
        argv_inline = argv[:-3] + ["1", "--cache-dir", str(tmp_path / "results-inline")]
        assert argv_inline[-4] == "--jobs"
        assert main(argv_inline) == 0
        capsys.readouterr()
        pooled = SweepRunner(cache_dir=tmp_path / "results", jobs=2)
        inline = SweepRunner(cache_dir=tmp_path / "results-inline", jobs=1)
        for spec in specs:
            assert (
                pooled.result_path(spec).read_bytes()
                == inline.result_path(spec).read_bytes()
            )


@pytest.mark.slow
class TestQuantizeCommand:
    def test_quantize_mlp_end_to_end(self, capsys, tmp_path, monkeypatch):
        import repro.experiments.presets as presets

        monkeypatch.setattr(presets, "_CACHE_DIR", tmp_path / "cache")
        presets.clear_caches()
        checkpoint = tmp_path / "quantized.npz"
        code = main(
            [
                "quantize",
                "--model", "mlp",
                "--dataset", "synth10",
                "--scale", "tiny",
                "--bits", "2.0",
                "--refine-epochs", "2",
                "--save", str(checkpoint),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Class-based Quantization report" in out
        assert checkpoint.exists()
        with np.load(checkpoint) as archive:
            assert len(archive.files) > 1


@pytest.mark.slow
class TestServeEndToEnd:
    def test_quantize_save_artifact_then_serve_then_predict(
        self, capsys, tmp_path, monkeypatch
    ):
        """The full artifact lifecycle: search → export → pack → serve."""
        import repro.experiments.presets as presets

        monkeypatch.setenv("REPRO_PRETRAINED_CACHE", str(tmp_path / "pretrained"))
        presets.clear_caches()
        artifact = tmp_path / "quantized.cqw"
        code = main(
            [
                "quantize",
                "--model", "mlp",
                "--dataset", "synth10",
                "--scale", "tiny",
                "--bits", "2.0",
                "--refine-epochs", "1",
                "--save-artifact", str(artifact),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "saved serving artifact" in out
        assert artifact.exists()

        code = main(
            [
                "serve",
                "--artifact", str(artifact),
                "--requests", "16",
                "--concurrency", "4",
                "--repeat", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("parity: OK (16 requests bit-exact)") == 2
        assert "artifact cache: 1 hits, 1 misses" in out

        batch = tmp_path / "batch.npz"
        dataset = presets.get_dataset("synth10", scale="tiny", seed=0)
        np.savez(batch, images=dataset.test_images[:4])
        code = main(
            ["predict", "--artifact", str(artifact), "--input", str(batch)]
        )
        assert code == 0
        assert "predicted 4 samples" in capsys.readouterr().out
