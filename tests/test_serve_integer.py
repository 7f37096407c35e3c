"""The integer-MAC serving backend (tier-1).

``ServeConfig(backend="integer")`` executes the packed CQW1 codes
directly — no float weight reconstruction — so the correctness contract
is different from the float engine's bitwise self-parity: integer
answers must agree with the float engine within the **derived rescale
bound** of :func:`repro.serve.integer.integer_parity_rtol`
(docs/architecture.md, Serving → Integer backend), exactly where the
arithmetic allows it (pruned 0-bit filters output exactly ``bias``).

Everything here compiles from a **saved-and-reloaded** artifact — the
bytes on disk, not the in-memory model, are the program under test —
and fuzzes the code paths the packing format makes interesting: 0-bit
pruned filters, mixed 1..8-bit assignments, single-filter layers and
non-byte-aligned packings.
"""

import numpy as np
import pytest

from repro.quant.export import export_quantized_weights
from repro.quant.integer import install_integer_forwards
from repro.quant.packing import deserialize_export, serialize_export
from repro.quant.qmodules import (
    calibrate_activations,
    quantize_model,
    quantized_layers,
)
from repro.serve import (
    ArtifactCache,
    ArtifactManifest,
    IntegerBackendParityError,
    IntegerServingModel,
    ReplayRun,
    ServeConfig,
    ServingSession,
    TraceConfig,
    compile_artifact,
    compile_integer_serving,
    generate_trace,
    integer_parity_rtol,
    load_artifact,
    replay_trace,
    save_artifact,
    verify_integer_parity,
    verify_replay,
)
from repro.quant.integer import (
    compile_integer_layer,
    compile_integer_layer_from_export,
    integer_forward,
)
from repro.serve.artifact import build_serving_model
from repro.tensor.tensor import Tensor, no_grad


def build_random_bits_model(
    max_bits=8, act_bits=None, seed=1, bits_seed=0, image_size=8
):
    """An untrained quantized MLP preset with random per-filter bits in
    ``0..max_bits`` (0 = pruned) — the fuzz workhorse. Architecture
    matches ``build_preset_model`` so its artifacts load back."""
    from repro.experiments.presets import build_preset_model

    model = build_preset_model(
        "mlp", num_classes=4, image_size=image_size, scale="tiny", seed=seed
    )
    quantize_model(model, max_bits=max_bits, act_bits=act_bits)
    bits_rng = np.random.default_rng(bits_seed)
    for layer in quantized_layers(model).values():
        layer.set_bits(
            bits_rng.integers(0, max_bits + 1, size=layer.num_filters)
        )
    if act_bits is not None:
        calibration = bits_rng.standard_normal((16, 3, image_size, image_size))
        calibrate_activations(model, [calibration])
    model.eval()
    manifest = ArtifactManifest(
        model="mlp",
        dataset="synth10",
        scale="tiny",
        seed=seed,
        num_classes=4,
        image_size=image_size,
        max_bits=max_bits,
        act_bits=act_bits,
    )
    return model, manifest


def saved_and_reloaded(model, manifest, tmp_path, name="model.cqw"):
    """Artifact round-tripped through the CQW1 bytes on disk."""
    path = tmp_path / name
    save_artifact(path, model, manifest)
    return path, load_artifact(path)


def float64_reference(artifact):
    """The float model the rescale bound is derived against: a float64
    build, whatever dtype the float backend serves the artifact in."""
    return build_serving_model(artifact, dtype=np.float64)


def float64_forward(artifact, inputs):
    with no_grad():
        return float64_reference(artifact)(Tensor(np.asarray(inputs))).data


def assert_within_rescale_bound(got, expected, rtol):
    tolerance = rtol * max(1.0, float(np.max(np.abs(expected))))
    error = float(np.max(np.abs(got - expected)))
    assert error <= tolerance, (
        f"integer backend error {error:.3e} exceeds rescale bound "
        f"{tolerance:.3e}"
    )


class TestIntegerSessions:
    """Session-level contract: serve the saved artifact with integer
    MACs, agree with the float engine within the derived bound."""

    @pytest.mark.parametrize(
        "act_bits,bits_seed",
        [(None, 0), (None, 3), (4, 0), (2, 5), (8, 7)],
        ids=["w-only-s0", "w-only-s3", "act4-s0", "act2-s5", "act8-s7"],
    )
    def test_integer_session_within_bound_of_float_session(
        self, tmp_path, act_bits, bits_seed
    ):
        model, manifest = build_random_bits_model(
            act_bits=act_bits, bits_seed=bits_seed
        )
        path, artifact = saved_and_reloaded(model, manifest, tmp_path)
        inputs = np.random.default_rng(99).standard_normal((12, 3, 8, 8))
        expected = float64_forward(artifact, inputs)
        with ServingSession(
            path, cache=ArtifactCache(), config=ServeConfig(backend="integer")
        ) as session:
            got = session.predict_batch(inputs)
            stats = session.stats
        assert_within_rescale_bound(
            got, expected, integer_parity_rtol(artifact.export)
        )
        assert stats.backend == "integer"

    def test_verify_replay_checks_rescale_bound_for_integer_engines(
        self, tmp_path
    ):
        model, manifest = build_random_bits_model(act_bits=4)
        path, _artifact = saved_and_reloaded(model, manifest, tmp_path)
        inputs = np.random.default_rng(5).standard_normal((32, 3, 8, 8))
        config = ServeConfig(
            batch_window_s=0.01,
            max_batch_size=8,
            record_batches=True,
            backend="integer",
        )
        with ServingSession(path, cache=ArtifactCache(), config=config) as session:
            assert isinstance(session.model, IntegerServingModel)
            trace = generate_trace(
                TraceConfig(kind="backlog", requests=len(inputs))
            )
            run = replay_trace(session, inputs, trace, concurrency=3)
            # Bit-exact self-parity AND the rescale bound vs the float
            # prototype, per executed batch.
            assert verify_replay(
                session, inputs, run, expected=len(inputs)
            ) == len(inputs)

    def test_acc_bits_surfaced_in_stats(self, tmp_path):
        model, manifest = build_random_bits_model(act_bits=4)
        path, _artifact = saved_and_reloaded(model, manifest, tmp_path)
        inputs = np.random.default_rng(2).standard_normal((6, 3, 8, 8))
        with ServingSession(
            path, cache=ArtifactCache(), config=ServeConfig(backend="integer")
        ) as session:
            session.predict_batch(inputs)
            stats = session.stats
        # int x int MACs ran: the widest accumulator is tracked and the
        # summary renders it (the CI smoke greps for "acc_bits").
        assert stats.acc_bits_used > 0
        assert "acc_bits" in stats.summary()

    def test_weight_only_backend_reports_zero_acc_bits(self, tmp_path):
        model, manifest = build_random_bits_model(act_bits=None)
        path, _artifact = saved_and_reloaded(model, manifest, tmp_path)
        with ServingSession(
            path, cache=ArtifactCache(), config=ServeConfig(backend="integer")
        ) as session:
            session.predict(np.zeros((3, 8, 8)))
            stats = session.stats
        assert stats.backend == "integer"
        assert stats.acc_bits_used == 0  # activations stayed float

    def test_bare_model_session_rejects_integer_backend(self):
        model, _manifest = build_random_bits_model(max_bits=4)
        with pytest.raises(ValueError, match="packed codes"):
            ServingSession(model, config=ServeConfig(backend="integer"))

    def test_unknown_backend_rejected(self, tmp_path):
        model, manifest = build_random_bits_model(max_bits=4)
        path, _ = saved_and_reloaded(model, manifest, tmp_path)
        with pytest.raises(ValueError, match="backend"):
            ServingSession(path, config=ServeConfig(backend="int8"))

    def test_float_and_integer_leases_share_one_cache_entry(self, tmp_path):
        model, manifest = build_random_bits_model(max_bits=4)
        path, artifact = saved_and_reloaded(model, manifest, tmp_path)
        cache = ArtifactCache()
        with ServingSession(path, cache=cache) as float_session:
            with ServingSession(
                path, cache=cache, config=ServeConfig(backend="integer")
            ) as int_session:
                x = np.random.default_rng(0).standard_normal((3, 8, 8))
                float_session.predict(x)
                got = int_session.predict(x)
        expected = float64_forward(artifact, x[None])[0]
        # One parse (hit on the second session), two leases, balanced.
        assert cache.stats.misses == 1 and cache.stats.hits >= 1
        assert cache.stats.leases == 2 and cache.stats.releases == 2
        assert cache.active_leases() == 0
        rtol = int_session.artifact.integer_model().parity_rtol
        assert_within_rescale_bound(got, expected, rtol)


class TestPrunedFilters:
    """Where the arithmetic is exact, demand exactness: a 0-bit filter
    contributes no MACs — its output is the bias, bitwise, on both
    backends."""

    def test_pruned_output_channels_are_exactly_bias(self, tmp_path):
        from repro.quant.integer import capture_quantized_inputs

        model, manifest = build_random_bits_model(max_bits=4, bits_seed=2)
        # Prune two filters of the last quantized layer (the MLP head
        # itself stays float, so check at the pruned layer's output).
        final_name, final_layer = list(quantized_layers(model).items())[-1]
        bits = final_layer.bits.copy()
        bits[0] = 0
        bits[2] = 0
        final_layer.set_bits(bits)
        path, artifact = saved_and_reloaded(model, manifest, tmp_path)
        float_model = artifact.model()
        integer_model = artifact.integer_model()
        bias = np.asarray(quantized_layers(float_model)[final_name].bias.data)
        inputs = np.random.default_rng(8).standard_normal((5, 3, 8, 8))
        # The input the float engine actually feeds that layer.
        _, captured = capture_quantized_inputs(float_model, inputs)
        layer_input = captured[final_name]
        with no_grad():
            float_rows = quantized_layers(float_model)[final_name](
                Tensor(layer_input)
            ).data
        integer_rows = integer_forward(
            integer_model.specs[final_name].lease_copy(), layer_input
        )
        for channel in (0, 2):
            expected = np.full(len(layer_input), bias[channel])
            np.testing.assert_array_equal(integer_rows[:, channel], expected)
            np.testing.assert_array_equal(float_rows[:, channel], expected)

    def test_spec_level_pruned_filters_from_reloaded_artifact(self, tmp_path):
        model, manifest = build_random_bits_model(max_bits=8, bits_seed=11)
        path, artifact = saved_and_reloaded(model, manifest, tmp_path)
        integer_model = artifact.integer_model()
        rng = np.random.default_rng(1)
        pruned_seen = 0
        for name, spec in integer_model.specs.items():
            pruned = np.flatnonzero(np.asarray(spec.bits_per_filter) == 0)
            if pruned.size == 0:
                continue
            pruned_seen += pruned.size
            x = rng.standard_normal((4, spec.codes.shape[1]))
            out = integer_forward(spec.lease_copy(), x)
            bias = spec.bias[pruned]
            np.testing.assert_array_equal(
                out[:, pruned], np.broadcast_to(bias, (4, pruned.size))
            )
        assert pruned_seen > 0  # the fuzz seed actually exercised pruning


class TestPackingEdgeCases:
    """Spec-level fuzz over the packing format's corners, always through
    a serialize -> deserialize round trip of the export bytes."""

    @staticmethod
    def roundtrip_spec(model, layer_name):
        export = deserialize_export(
            serialize_export(export_quantized_weights(model))
        )
        layer = quantized_layers(model)[layer_name]
        return compile_integer_layer_from_export(
            layer, export.layers[layer_name], layer_name
        )

    @pytest.mark.parametrize("bits", [1, 3, 5, 7])
    def test_non_byte_aligned_packings(self, bits):
        """fan_in * bits not divisible by 8: the unpack must still
        reproduce the exact codes."""
        from repro.nn.module import Module
        from repro.quant.qmodules import QLinear

        class OneLayer(Module):
            def __init__(self):
                super().__init__()
                self.fc = QLinear(7, 3, max_bits=8, rng=np.random.default_rng(0))

            def forward(self, x):
                return self.fc(x)

        model = OneLayer()
        layer = quantized_layers(model)["fc"]
        layer.set_bits(np.full(3, bits, dtype=np.int64))
        model.eval()
        spec = self.roundtrip_spec(model, "fc")
        live = compile_integer_layer(layer, "fc")
        np.testing.assert_array_equal(spec.codes, live.codes)
        x = np.random.default_rng(3).standard_normal((6, 7))
        with no_grad():
            expected = layer(Tensor(x)).data
        np.testing.assert_allclose(
            integer_forward(spec, x), expected, rtol=1e-12, atol=1e-12
        )

    def test_single_filter_layer(self):
        from repro.nn.module import Module
        from repro.quant.qmodules import QLinear

        class OneFilter(Module):
            def __init__(self):
                super().__init__()
                self.fc = QLinear(5, 1, max_bits=8, rng=np.random.default_rng(4))

            def forward(self, x):
                return self.fc(x)

        model = OneFilter()
        layer = quantized_layers(model)["fc"]
        layer.set_bits(np.array([5], dtype=np.int64))
        model.eval()
        spec = self.roundtrip_spec(model, "fc")
        assert spec.num_filters == 1
        x = np.random.default_rng(6).standard_normal((4, 5))
        with no_grad():
            expected = layer(Tensor(x)).data
        np.testing.assert_allclose(
            integer_forward(spec, x), expected, rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_mixed_bit_artifacts_fuzz(self, tmp_path, seed):
        """Random 0..8-bit per-filter mixes, saved and reloaded: the
        integer model compiled from the disk bytes stays within the
        bound of the float model compiled from the same bytes."""
        act_bits = [None, 2, 4, 8][seed % 4]
        model, manifest = build_random_bits_model(
            max_bits=8, act_bits=act_bits, bits_seed=100 + seed
        )
        path, artifact = saved_and_reloaded(
            model, manifest, tmp_path, name=f"fuzz{seed}.cqw"
        )
        integer_model = compile_integer_serving(artifact)
        inputs = np.random.default_rng(seed).standard_normal((9, 3, 8, 8))
        difference = verify_integer_parity(
            integer_model, float64_reference(artifact), inputs
        )
        assert difference >= 0.0


class TestParityVerifier:
    """verify_integer_parity failure reporting: name the offending
    layer and its max abs error (the serve twin of
    verify_export(strict=True))."""

    def test_corrupted_codes_name_the_offending_layer(self, tmp_path):
        model, manifest = build_random_bits_model(max_bits=4)
        _path, artifact = saved_and_reloaded(model, manifest, tmp_path)
        integer_model = artifact.clone_model_for("integer")
        # Sabotage one layer's codes: a huge code on an unpruned filter.
        victim = None
        for name, spec in integer_model.specs.items():
            live = np.flatnonzero(np.asarray(spec.bits_per_filter) > 0)
            if live.size:
                victim = name
                spec.codes = spec.codes.copy()
                spec.codes[live[0]] += 10_000
                break
        assert victim is not None
        # Re-bind the closures over the edited spec.
        install_integer_forwards(integer_model.shell, integer_model.specs)
        inputs = np.random.default_rng(0).standard_normal((4, 3, 8, 8))
        with pytest.raises(IntegerBackendParityError) as excinfo:
            verify_integer_parity(integer_model, float64_reference(artifact), inputs)
        message = str(excinfo.value)
        assert victim in message
        assert "max abs error" in message

    def test_error_is_an_assertion_error(self, tmp_path):
        # The CLI maps AssertionError to "parity: FAILED"; the typed
        # error must stay in that hierarchy.
        assert issubclass(IntegerBackendParityError, AssertionError)

    def test_float32_reference_is_rejected(self, tmp_path):
        # The bound is derived at float64 eps: a float32 reference would
        # fail it on its own rounding, so it is refused up front.
        model, manifest = build_random_bits_model(max_bits=4)
        _path, artifact = saved_and_reloaded(model, manifest, tmp_path)
        assert artifact.compute_dtype == np.float32
        with pytest.raises(ValueError, match="float64"):
            verify_integer_parity(
                artifact.clone_model_for("integer"),
                artifact.model(),
                np.zeros((2, 3, 8, 8)),
            )

    def test_passing_verifier_returns_observed_difference(self, tmp_path):
        model, manifest = build_random_bits_model(max_bits=4, act_bits=2)
        _path, artifact = saved_and_reloaded(model, manifest, tmp_path)
        difference = verify_integer_parity(
            artifact.clone_model_for("integer"),
            float64_reference(artifact),
            np.random.default_rng(1).standard_normal((6, 3, 8, 8)),
        )
        rtol = integer_parity_rtol(artifact.export)
        assert 0.0 <= difference <= rtol * 1e6  # sane magnitude


class TestIntegerClones:
    """Copy-on-lease semantics of the integer prototype."""

    def test_clones_share_codes_but_not_acc_stats(self, tmp_path):
        model, manifest = build_random_bits_model(max_bits=4, act_bits=4)
        _path, artifact = saved_and_reloaded(model, manifest, tmp_path)
        prototype = artifact.integer_model()
        clone = prototype.clone()
        for name, spec in prototype.specs.items():
            assert clone.specs[name].codes is spec.codes  # shared, immutable
        x = np.random.default_rng(0).standard_normal((4, 3, 8, 8))
        with no_grad():
            clone(Tensor(x))
        assert clone.max_acc_bits() > 0
        assert prototype.max_acc_bits() == 0  # stats are private

    def test_clone_outputs_bit_identical_to_prototype(self, tmp_path):
        model, manifest = build_random_bits_model(max_bits=4, act_bits=2)
        _path, artifact = saved_and_reloaded(model, manifest, tmp_path)
        prototype = artifact.integer_model()
        clone = prototype.clone()
        x = np.random.default_rng(7).standard_normal((5, 3, 8, 8))
        with no_grad():
            np.testing.assert_array_equal(
                clone(Tensor(x)).data, prototype(Tensor(x)).data
            )
