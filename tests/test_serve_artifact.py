"""Tests for repro.serve.artifact: container, sidecar dtypes,
reconstruction, and the copy-on-lease LRU cache."""

import struct
import threading

import numpy as np
import pytest

from repro.quant.export import ExportMismatchError, export_quantized_weights, verify_export
from repro.quant.packing import write_bitstream
from repro.quant.qmodules import quantized_layers
from repro.serve import (
    ArtifactCache,
    ArtifactManifest,
    compile_artifact,
    load_artifact,
    load_artifact_bytes,
    save_artifact,
    serialize_artifact,
)
from repro.tensor.tensor import Tensor, no_grad


@pytest.fixture
def quantized_mlp(quantized_mlp_factory):
    return quantized_mlp_factory()


class TestManifest:
    def test_round_trip(self):
        manifest = ArtifactManifest(
            model="mlp", dataset="synth100", scale="small", seed=3,
            num_classes=100, image_size=16, max_bits=4, act_bits=2,
            extra={"accuracy": 0.5},
        )
        restored = ArtifactManifest.from_dict(manifest.to_dict())
        assert restored == manifest

    def test_non_finite_extras_become_null(self):
        manifest = ArtifactManifest(model="mlp", extra={"bad": float("nan")})
        assert manifest.to_dict()["extra"]["bad"] is None

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fields"):
            ArtifactManifest.from_dict({"model": "mlp", "frobnicate": 1})

    def test_input_shape(self):
        assert ArtifactManifest(model="mlp", image_size=8).input_shape == (3, 8, 8)


class TestContainer:
    def test_save_load_round_trip(self, quantized_mlp, tmp_path):
        model, manifest = quantized_mlp
        path = tmp_path / "model.cqw"
        written = save_artifact(path, model, manifest)
        assert path.stat().st_size == written
        artifact = load_artifact(path)
        assert artifact.manifest == manifest
        assert artifact.nbytes == written
        export = export_quantized_weights(model)
        assert set(artifact.export.layers) == set(export.layers)
        for name, layer in export.layers.items():
            for f in range(len(layer.bits_per_filter)):
                np.testing.assert_array_equal(
                    artifact.export.layers[name].codes[f], layer.codes[f]
                )

    def test_content_key_is_stable_and_content_based(self, quantized_mlp, tmp_path):
        model, manifest = quantized_mlp
        data = serialize_artifact(model, manifest)
        assert load_artifact_bytes(data).content_key == load_artifact_bytes(data).content_key
        (tmp_path / "a.cqw").write_bytes(data)
        (tmp_path / "b.cqw").write_bytes(data)
        assert (
            load_artifact(tmp_path / "a.cqw").content_key
            == load_artifact(tmp_path / "b.cqw").content_key
        )

    def test_compiled_artifact_saves_its_exact_bytes(self, quantized_mlp, tmp_path):
        model, manifest = quantized_mlp
        artifact = compile_artifact(model, manifest)
        path = tmp_path / "compiled.cqw"
        written = artifact.save(path)
        assert written == artifact.nbytes == path.stat().st_size
        assert load_artifact(path).content_key == artifact.content_key

    def test_bare_cqw1_without_sidecar_rejected(self, quantized_mlp, tmp_path):
        model, _manifest = quantized_mlp
        path = tmp_path / "bare.cqw"
        write_bitstream(export_quantized_weights(model), path)
        with pytest.raises(ValueError, match="sidecar"):
            load_artifact(path)

    def test_unknown_trailing_section_rejected(self, quantized_mlp):
        model, _manifest = quantized_mlp
        from repro.quant.packing import serialize_export

        data = serialize_export(export_quantized_weights(model)) + b"XXXX123"
        with pytest.raises(ValueError, match="CQS1"):
            load_artifact_bytes(data)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="CQW1"):
            load_artifact_bytes(b"NOPE" + b"\x00" * 16)

    def test_sidecar_excludes_quantized_weights(self, quantized_mlp):
        model, manifest = quantized_mlp
        artifact = compile_artifact(model, manifest)
        quantized = set(quantized_layers(model))
        for name in quantized:
            assert f"{name}.weight" not in artifact.state
            assert f"{name}.quant_bits" in artifact.state
        # Unquantized first/output layers ride along in full.
        assert any(key.endswith("fc0.weight") for key in artifact.state)

    def test_byte_breakdown_accounts_for_everything(self, quantized_mlp):
        model, manifest = quantized_mlp
        artifact = compile_artifact(model, manifest)
        assert artifact.payload_nbytes > 0 and artifact.sidecar_nbytes > 0
        assert artifact.payload_nbytes + artifact.sidecar_nbytes == artifact.nbytes
        breakdown = artifact.size_breakdown()
        assert str(artifact.payload_nbytes) in breakdown
        assert artifact.sidecar_dtype in breakdown


class TestSidecarDtype:
    """The CQS2 tagged container and its legacy-CQS1 compatibility."""

    def test_default_is_float32_and_tagged(self, quantized_mlp):
        model, manifest = quantized_mlp
        data = serialize_artifact(model, manifest)
        assert b"CQS2" in data
        assert load_artifact_bytes(data).sidecar_dtype == "float32"

    def test_float64_writes_legacy_cqs1_layout(self, quantized_mlp):
        model, manifest = quantized_mlp
        data = serialize_artifact(model, manifest, sidecar_dtype="float64")
        assert b"CQS1" in data and b"CQS2" not in data
        artifact = load_artifact_bytes(data)
        assert artifact.sidecar_dtype == "float64"
        # Lossless: the state round-trips bit for bit.
        from repro.serve.artifact import _serving_state

        for name, value in _serving_state(model).items():
            np.testing.assert_array_equal(artifact.state[name], value)

    def test_hand_packed_legacy_sidecar_still_loads(self, quantized_mlp):
        """A v1 sidecar framed by hand (the pre-CQS2 writer's layout)
        must keep loading — deployed artifacts are immortal."""
        import json

        from repro.quant.packing import serialize_export
        from repro.serve.artifact import _serving_state

        model, manifest = quantized_mlp
        state = _serving_state(model)
        manifest_bytes = json.dumps(
            manifest.to_dict(), sort_keys=True, allow_nan=False
        ).encode("utf-8")
        chunks = [
            b"CQS1",
            struct.pack("<I", len(manifest_bytes)),
            manifest_bytes,
            struct.pack("<I", len(state)),
        ]
        for name, array in state.items():
            array = np.asarray(array, dtype=np.float64)
            name_bytes = name.encode("utf-8")
            chunks.append(struct.pack("<H", len(name_bytes)))
            chunks.append(name_bytes)
            chunks.append(struct.pack("<B", array.ndim))
            chunks.append(struct.pack(f"<{array.ndim}I", *array.shape))
            chunks.append(array.tobytes())
        data = serialize_export(export_quantized_weights(model)) + b"".join(chunks)
        artifact = load_artifact_bytes(data)
        assert artifact.sidecar_dtype == "float64"
        for name, value in state.items():
            np.testing.assert_array_equal(artifact.state[name], value)

    def test_float32_sidecar_is_measurably_smaller(self, quantized_mlp):
        model, manifest = quantized_mlp
        wide = load_artifact_bytes(
            serialize_artifact(model, manifest, sidecar_dtype="float64")
        )
        compact = load_artifact_bytes(
            serialize_artifact(model, manifest, sidecar_dtype="float32")
        )
        # Same payload, roughly half the sidecar: for the tiny preset
        # the sidecar dominates, so the whole artifact shrinks a lot.
        assert compact.payload_nbytes == wide.payload_nbytes
        assert compact.sidecar_nbytes < 0.6 * wide.sidecar_nbytes
        assert compact.nbytes < 0.75 * wide.nbytes

    def test_float16_is_smaller_still(self, quantized_mlp):
        model, manifest = quantized_mlp
        f32 = serialize_artifact(model, manifest, sidecar_dtype="float32")
        f16 = serialize_artifact(model, manifest, sidecar_dtype="float16")
        assert len(f16) < len(f32)
        assert load_artifact_bytes(f16).sidecar_dtype == "float16"

    def test_float32_state_is_the_rounded_original(self, quantized_mlp):
        """The narrowing happens exactly once, at pack time: the loaded
        state equals the original cast through float32 — no double
        rounding, no drift across loads."""
        from repro.serve.artifact import _serving_state

        model, manifest = quantized_mlp
        artifact = load_artifact_bytes(
            serialize_artifact(model, manifest, sidecar_dtype="float32")
        )
        for name, value in _serving_state(model).items():
            expected = np.asarray(value).astype(np.float32).astype(np.float64)
            assert artifact.state[name].dtype == np.float32  # kept as stored
            np.testing.assert_array_equal(artifact.state[name], expected)

    def test_float32_artifact_builds_and_serves(self, quantized_mlp, rng):
        model, manifest = quantized_mlp
        serving = compile_artifact(model, manifest, sidecar_dtype="float32").model()
        batch = rng.standard_normal((4, 3, 8, 8))
        with no_grad():
            got = serving(Tensor(batch.astype(np.float32))).data
            expected = model(Tensor(batch)).data
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, expected, rtol=1e-5, atol=1e-6)

    @pytest.mark.parametrize(
        "sidecar_dtype,compute_dtype",
        [("float64", np.float64), ("float32", np.float32), ("float16", np.float32),
         ("mixed", np.float64)],
    )
    def test_model_computes_in_the_sidecar_compute_dtype(
        self, quantized_mlp, sidecar_dtype, compute_dtype
    ):
        """float32 and float16 sidecars serve in float32; float64, legacy
        CQS1 and mixed sidecars in float64. The integer shell is float64
        whatever the sidecar."""
        import dataclasses

        model, manifest = quantized_mlp
        stored = "float32" if sidecar_dtype == "mixed" else sidecar_dtype
        artifact = compile_artifact(model, manifest, sidecar_dtype=stored)
        if sidecar_dtype == "mixed":  # a CQS2 sidecar carrying several tags
            artifact = dataclasses.replace(artifact, sidecar_dtype="mixed")
        assert artifact.compute_dtype == compute_dtype
        for name, param in artifact.model().named_parameters():
            assert param.dtype == compute_dtype, name
        for name, buffer in artifact.model().named_buffers():
            assert buffer.dtype == compute_dtype, name
        for _, param in artifact.integer_model().named_parameters():
            assert param.dtype == np.float64

    def test_unknown_dtype_rejected(self, quantized_mlp):
        model, manifest = quantized_mlp
        with pytest.raises(ValueError, match="sidecar dtype"):
            serialize_artifact(model, manifest, sidecar_dtype="int8")

    def test_unknown_tensor_tag_rejected(self, quantized_mlp):
        model, manifest = quantized_mlp
        data = bytearray(serialize_artifact(model, manifest, sidecar_dtype="float32"))
        # Corrupt the first tensor's dtype tag: it sits right after the
        # first tensor name, which follows the CQS2 magic + manifest.
        offset = data.index(b"CQS2") + 4
        (manifest_len,) = struct.unpack_from("<I", data, offset)
        offset += 4 + manifest_len + 4  # manifest + tensor count
        (name_len,) = struct.unpack_from("<H", data, offset)
        tag_offset = offset + 2 + name_len
        data[tag_offset] = 250
        with pytest.raises(ValueError, match="dtype tag"):
            load_artifact_bytes(bytes(data))


class TestServingModel:
    def test_weights_are_bit_exact_with_effective_weight(self, quantized_mlp):
        # Quantized weights travel as integer codes, so reconstruction
        # is bitwise whatever the sidecar dtype (float32 default here):
        # exact in a float64 build, and rounded once to the float32 the
        # default sidecar serves in.
        from repro.serve.artifact import build_serving_model

        model, manifest = quantized_mlp
        artifact = compile_artifact(model, manifest)
        reference = quantized_layers(model)
        for serving, dtype in [
            (artifact.model(), np.float32),
            (build_serving_model(artifact, dtype=np.float64), np.float64),
        ]:
            for name, layer in quantized_layers(serving).items():
                assert layer.weight_quant_enabled is False
                assert layer.weight.dtype == dtype
                expected = reference[name].effective_weight().data.astype(dtype)
                assert layer.weight.data.tobytes() == expected.tobytes()

    def test_forward_parity_weights_only(self, quantized_mlp, rng):
        model, manifest = quantized_mlp
        serving = compile_artifact(
            model, manifest, sidecar_dtype="float64"
        ).model()
        batch = rng.standard_normal((6, 3, 8, 8))
        with no_grad():
            expected = model(Tensor(batch)).data
            got = serving(Tensor(batch)).data
        np.testing.assert_array_equal(got, expected)

    def test_forward_parity_with_quantized_activations(
        self, quantized_mlp_factory, rng
    ):
        model, manifest = quantized_mlp_factory(act_bits=2)
        serving = compile_artifact(
            model, manifest, sidecar_dtype="float64"
        ).model()
        batch = rng.standard_normal((6, 3, 8, 8))
        with no_grad():
            expected = model(Tensor(batch)).data
            got = serving(Tensor(batch)).data
        np.testing.assert_array_equal(got, expected)

    def test_model_is_built_once(self, quantized_mlp):
        model, manifest = quantized_mlp
        artifact = compile_artifact(model, manifest)
        assert artifact.model() is artifact.model()

    def test_clone_model_is_private_and_bit_identical(self, quantized_mlp):
        model, manifest = quantized_mlp
        artifact = compile_artifact(model, manifest)
        prototype = artifact.model()
        clone = artifact.clone_model_for("float")
        assert clone is not prototype
        proto_state = prototype.state_dict()
        clone_state = clone.state_dict()
        assert set(proto_state) == set(clone_state)
        for name, value in proto_state.items():
            np.testing.assert_array_equal(clone_state[name], value)
        # Mutating the clone leaves the prototype untouched.
        first_name = next(name for name, _ in clone.named_parameters())
        dict(clone.named_parameters())[first_name].data[...] += 1.0
        np.testing.assert_array_equal(
            dict(prototype.named_parameters())[first_name].data,
            proto_state[first_name],
        )


class TestVerifyExportStrict:
    def test_strict_raises_with_layer_and_error(self, quantized_mlp):
        model, _manifest = quantized_mlp
        export = export_quantized_weights(model)
        name = next(iter(export.layers))
        # Corrupt one non-empty code array.
        layer = export.layers[name]
        victim = next(f for f, b in enumerate(layer.bits_per_filter) if int(b) > 0)
        layer.codes[victim] = layer.codes[victim] ^ 1
        assert verify_export(model, export) is False
        with pytest.raises(ExportMismatchError, match=name) as error:
            verify_export(model, export, strict=True)
        assert "max abs error" in str(error.value)

    def test_strict_passes_on_clean_export(self, quantized_mlp):
        model, _manifest = quantized_mlp
        assert verify_export(model, strict=True) is True

    def test_compile_runs_strict_verification(self, quantized_mlp, monkeypatch):
        model, manifest = quantized_mlp
        import repro.serve.artifact as artifact_module

        def broken_export(_model):
            export = export_quantized_weights(model)
            layer = next(iter(export.layers.values()))
            victim = next(
                f for f, b in enumerate(layer.bits_per_filter) if int(b) > 0
            )
            layer.codes[victim] = layer.codes[victim] ^ 1
            return export

        monkeypatch.setattr(
            artifact_module, "export_quantized_weights", broken_export
        )
        with pytest.raises(ExportMismatchError):
            compile_artifact(model, manifest)
        # verify=False skips the guard (the corruption ships).
        assert compile_artifact(model, manifest, verify=False) is not None


class TestZeroCopyLoad:
    """load_artifact_bytes over memoryviews: parse in place, account
    the bytes as shared; plain bytes stay private without a copy."""

    def test_bytes_are_kept_without_copy_and_private(self, quantized_mlp):
        model, manifest = quantized_mlp
        data = serialize_artifact(model, manifest)
        artifact = load_artifact_bytes(data)
        assert artifact.data is data  # no defensive copy
        assert artifact.shared_nbytes == 0
        assert artifact.private_nbytes == artifact.nbytes == len(data)

    def test_memoryview_parses_in_place_as_shared(self, quantized_mlp):
        model, manifest = quantized_mlp
        data = serialize_artifact(model, manifest)
        view = memoryview(data)
        artifact = load_artifact_bytes(view)
        assert isinstance(artifact.data, memoryview)
        assert artifact.data.obj is data  # same buffer, zero-copy
        assert artifact.shared_nbytes == artifact.nbytes == len(data)
        assert artifact.private_nbytes == 0
        # Identical bytes => identical content identity either way.
        assert artifact.content_key == load_artifact_bytes(data).content_key

    def test_bytearray_is_snapshotted(self, quantized_mlp):
        model, manifest = quantized_mlp
        data = serialize_artifact(model, manifest)
        mutable = bytearray(data)
        artifact = load_artifact_bytes(mutable)
        key = artifact.content_key
        mutable[len(mutable) // 2] ^= 0xFF  # cannot drift the parsed copy
        assert artifact.content_key == key
        assert bytes(artifact.data) == data


class TestArtifactCache:
    def test_hits_are_free_and_shared(self, quantized_mlp, tmp_path):
        model, manifest = quantized_mlp
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest)
        cache = ArtifactCache(capacity=2)
        first = cache.load(path)
        second = cache.load(path)
        assert second is first
        assert second.model() is first.model()
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert "1 hits, 1 misses" in cache.stats.summary()

    def test_keyed_by_content_not_path(self, quantized_mlp, tmp_path):
        model, manifest = quantized_mlp
        data = serialize_artifact(model, manifest)
        (tmp_path / "a.cqw").write_bytes(data)
        (tmp_path / "b.cqw").write_bytes(data)
        cache = ArtifactCache()
        assert cache.load(tmp_path / "b.cqw") is cache.load(tmp_path / "a.cqw")
        assert cache.stats.hits == 1

    def test_lru_eviction(self, quantized_mlp_factory, tmp_path):
        cache = ArtifactCache(capacity=1)
        model_a, manifest_a = quantized_mlp_factory(bits_seed=0)
        model_b, manifest_b = quantized_mlp_factory(bits_seed=9)
        bytes_a = serialize_artifact(model_a, manifest_a)
        bytes_b = serialize_artifact(model_b, manifest_b)
        assert bytes_a != bytes_b
        first = cache.load_bytes(bytes_a)
        cache.load_bytes(bytes_b)
        assert cache.stats.evictions == 1
        assert cache.load_bytes(bytes_a) is not first  # rebuilt after eviction
        assert cache.stats.misses == 3 and cache.stats.hits == 0

    def test_race_losing_build_counts_as_race_not_hit(
        self, quantized_mlp, monkeypatch
    ):
        """Two threads load the same uncached bytes: the loser's build
        is thrown away — neither saved work (hit) nor a cache entry
        (miss). The `loads` identity must still hold."""
        import repro.serve.artifact as artifact_module

        model, manifest = quantized_mlp
        data = serialize_artifact(model, manifest)
        cache = ArtifactCache()
        real_load = artifact_module.load_artifact_bytes
        first_build_started = threading.Event()
        winner_inserted = threading.Event()
        calls = []

        def stalling_load(payload):
            calls.append(1)
            if len(calls) == 1:  # the loser: build, then wait out the winner
                first_build_started.set()
                assert winner_inserted.wait(timeout=10)
            return real_load(payload)

        monkeypatch.setattr(artifact_module, "load_artifact_bytes", stalling_load)
        results = {}

        def loser():
            results["loser"] = cache.load_bytes(data)

        thread = threading.Thread(target=loser)
        thread.start()
        assert first_build_started.wait(timeout=10)
        results["winner"] = cache.load_bytes(data)
        winner_inserted.set()
        thread.join(timeout=10)
        assert not thread.is_alive()

        assert results["loser"] is results["winner"]  # first build kept
        stats = cache.stats
        assert stats.misses == 1 and stats.races == 1 and stats.hits == 0
        # The accounting identity: every load is a hit, a miss or a race.
        assert stats.loads == stats.hits + stats.misses + stats.races == 2
        # A later load is a plain hit.
        assert cache.load_bytes(data) is results["winner"]
        assert cache.stats.hits == 1 and cache.stats.loads == 3

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ArtifactCache(capacity=0)

    def test_summary_splits_shared_and_private_bytes(
        self, quantized_mlp, tmp_path
    ):
        model, manifest = quantized_mlp
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest)
        cache = ArtifactCache()
        private = cache.load(path)
        assert f"0 shared / {private.nbytes} private bytes" in cache.stats.summary()
        cache.clear()
        # A memoryview load (how a shm segment is parsed) counts as shared.
        shared = cache.load_bytes(memoryview(path.read_bytes()))
        assert shared.shared_nbytes == shared.nbytes
        assert f"{shared.nbytes} shared / 0 private bytes" in cache.stats.summary()

    def test_clear(self, quantized_mlp):
        model, manifest = quantized_mlp
        cache = ArtifactCache()
        cache.load_bytes(serialize_artifact(model, manifest))
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0


class TestCopyOnLease:
    """ArtifactCache.lease: private clones, refcounts, eviction safety."""

    def test_leases_share_artifact_but_not_models(self, quantized_mlp, tmp_path):
        model, manifest = quantized_mlp
        path = tmp_path / "model.cqw"
        save_artifact(path, model, manifest)
        cache = ArtifactCache()
        first = cache.lease(path)
        second = cache.lease(path)
        assert first.artifact is second.artifact
        assert first.model is not second.model
        assert first.model is not first.artifact.model()
        for name, value in first.model.state_dict().items():
            np.testing.assert_array_equal(second.model.state_dict()[name], value)
        # One parse+build, one hit, two live claims.
        assert cache.stats.misses == 1 and cache.stats.hits == 1
        assert cache.stats.leases == 2 and cache.active_leases() == 2
        first.release()
        second.release()
        assert cache.active_leases() == 0
        assert cache.stats.releases == 2

    def test_release_is_idempotent_and_context_managed(self, quantized_mlp):
        model, manifest = quantized_mlp
        cache = ArtifactCache()
        data = serialize_artifact(model, manifest)
        with cache.lease(data) as lease:
            assert not lease.released
            assert cache.active_leases() == 1
        assert lease.released
        lease.release()  # idempotent
        assert cache.stats.releases == 1
        assert cache.active_leases() == 0

    def test_lease_adopts_parsed_artifacts(self, quantized_mlp):
        model, manifest = quantized_mlp
        artifact = compile_artifact(model, manifest)
        cache = ArtifactCache()
        lease = cache.lease(artifact)
        assert lease.artifact is artifact
        assert cache.stats.misses == 1
        again = cache.lease(artifact)
        assert cache.stats.hits == 1
        lease.release()
        again.release()

    def test_eviction_skips_leased_entries(self, quantized_mlp_factory):
        cache = ArtifactCache(capacity=1)
        model_a, manifest_a = quantized_mlp_factory(bits_seed=0)
        model_b, manifest_b = quantized_mlp_factory(bits_seed=9)
        lease_a = cache.lease(serialize_artifact(model_a, manifest_a))
        cache.load_bytes(serialize_artifact(model_b, manifest_b))
        # A is leased: B is the (LRU-violating but safe) eviction victim,
        # and A's lease keeps working.
        assert len(cache) == 1
        assert cache.stats.evictions == 1
        extra = cache.lease(serialize_artifact(model_a, manifest_a))
        assert extra.artifact is lease_a.artifact  # A is still the cached entry
        extra.release()
        # Releasing A makes it evictable again.
        lease_a.release()
        cache.load_bytes(serialize_artifact(model_b, manifest_b))
        assert cache.stats.evictions == 2

    def test_bad_lease_source_rejected(self):
        with pytest.raises(TypeError, match="lease source"):
            ArtifactCache().lease(42)

    def test_lease_stats_in_summary(self, quantized_mlp):
        model, manifest = quantized_mlp
        cache = ArtifactCache()
        lease = cache.lease(serialize_artifact(model, manifest))
        summary = cache.stats.summary()
        assert "1 leases (1 active)" in summary
        assert "0 races" in summary
        lease.release()
        assert "1 leases (0 active)" in cache.stats.summary()
