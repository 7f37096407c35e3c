"""Workload ``gateway-poisson``: open-loop single-row predicts over HTTP.

A child process (``gateway_child.py``) serves the uniform-2-bit VGG-small
artifact on a loopback gateway. This process generates the requests
from ``--seed``: single synth10 test images (each test image equally
often, in a seeded order), pre-encoded as b64 ``POST /v1/predict``
bodies, sent at Poisson arrival times at a fixed rate well under the
capacity of the two client connections. Arrivals are drawn as sorted
uniform times over the window, which is a Poisson process conditioned
on its request count.

Open-loop hygiene:

* a warm-up period runs before timing (a fresh gateway reads slower
  for its first seconds);
* a dispatcher thread releases each request at its scheduled time to
  eight client threads, each holding one keep-alive connection. With
  only two connections about one request in eight found both busy at
  this rate, and that client-side wait made up most of the p99; eight
  connections leave the tail to the server. Latency is measured from
  the scheduled arrival, so any wait for a free connection still counts;
* the dispatcher's lateness is reported, and a run whose median lag is
  large against the median latency is flagged invalid.

The child checks every row it served (``verify_replay`` with
``record_batches=True`` at full coverage); this process then checks
that each answer it received carries the digest of a verified row for
the same input.

Unit of work: one request.
"""

from __future__ import annotations

import json
import os
import queue
import subprocess
import sys
import threading
import time
from typing import Dict, List

import numpy as np

from common import PRESET, ROOT, digest, info, median, percentile

RATE_RPS = 200.0
WARMUP_S = 3.0
#: Latency percentiles are taken per slice of this many consecutive
#: requests, so each slice's p99 has at least 10 samples beyond it.
SLICE = 1000
CLIENTS = 8  # keep-alive connections, one client thread each
ARTIFACT = "vgg"
READY_TIMEOUT_S = 120.0
#: A run is invalid if the dispatcher's median lag exceeds this share of p50.
MAX_LAG_SHARE = 0.25


class Child:
    def __init__(self, cpus):
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "gateway_child.py"), ",".join(map(str, cpus))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
        )
        try:
            self.ready = json.loads(self._expect("READY ", READY_TIMEOUT_S))
        except BaseException:
            self.process.kill()
            self.process.wait(timeout=60)
            raise

    def _expect(self, prefix: str, timeout_s: float) -> str:
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(target=lambda: lines.put(self.process.stdout.readline()), daemon=True)
        reader.start()
        try:
            line = lines.get(timeout=timeout_s)
        except queue.Empty:
            raise TimeoutError(f"gateway child sent no {prefix!r} line in {timeout_s} s")
        if not line.startswith(prefix):
            raise RuntimeError(f"gateway child said {line!r}, expected {prefix!r}")
        return line[len(prefix):]

    def ask(self, command: str, prefix: str = "", timeout_s: float = 120.0) -> str:
        self.process.stdin.write(command + "\n")
        self.process.stdin.flush()
        return self._expect(prefix, timeout_s)

    def close(self) -> None:
        try:
            if self.process.poll() is None:
                self.ask("close", "bye", timeout_s=60.0)
        finally:
            if self.process.poll() is None:
                self.process.kill()
            self.process.wait(timeout=60)


def _requests(seed: int, count: int, dtype):
    from repro.experiments.presets import get_dataset
    from repro.gateway import canonical_dumps, encode_tensor

    data = get_dataset(PRESET["dataset"], scale=PRESET["scale"], seed=PRESET["seed"])
    rng = np.random.default_rng(seed)
    images = len(data.test_images)
    if count % images:
        raise ValueError(f"request count {count} is not a multiple of {images} test images")
    order = np.concatenate([rng.permutation(images) for _ in range(count // images)])
    inputs = np.ascontiguousarray(data.test_images[order], dtype=dtype)
    bodies = [
        canonical_dumps({"inputs": encode_tensor(row, "b64"), "encoding": "b64"})
        for row in inputs
    ]
    return inputs, data.test_labels[order], bodies, rng


def _arrivals(rng, count: int) -> np.ndarray:
    return np.sort(rng.uniform(0.0, count / RATE_RPS, count))


def _drive(url: str, bodies: List[str], arrivals: np.ndarray, tracer=None):
    """Send ``bodies[i]`` at ``arrivals[i]`` seconds after the start.

    Returns one record per request and the start time."""
    from repro.gateway import GatewayClient

    records: List[dict] = [{} for _ in bodies]
    work: "queue.Queue[int]" = queue.Queue()
    client = GatewayClient(url)

    def worker() -> None:
        while True:
            index = work.get()
            if index < 0:
                return
            record = records[index]
            record["sent"] = time.perf_counter()
            span = tracer.begin("gateway.client.request", request_id=index) if tracer else None
            try:
                status, document, _ = client.request("POST", f"/v1/predict/{ARTIFACT}", bodies[index])
                record["status"] = status
                record["document"] = document
            except Exception as error:  # counted as a failed request
                record["status"] = -1
                record["error"] = f"{type(error).__name__}: {error}"
            record["done"] = time.perf_counter()
            if span is not None:
                tracer.end(span)

    threads = [threading.Thread(target=worker, name=f"loadgen-{i}", daemon=True) for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    started = time.perf_counter()
    try:
        for index, offset in enumerate(arrivals):
            due = started + float(offset)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            records[index]["due"] = due
            records[index]["lag"] = time.perf_counter() - due
            work.put(index)
    finally:
        for _ in threads:
            work.put(-1)
        for thread in threads:
            thread.join()
        client.close()
    return records, started


def _window(url, inputs, labels, bodies, arrivals, tracer=None):
    """Latency, accuracy and correctness figures of one measured window."""
    from repro.gateway import decode_tensor

    latencies, lags, overheads, queue_waits, services, correct = [], [], [], [], [], 0
    records, started = _drive(url, bodies, arrivals, tracer)
    for index, record in enumerate(records):
        ok = record.get("status") == 200
        if ok:
            document = record["document"]
            output = decode_tensor(document["outputs"])[0]
            record["key"] = (document["engine_indices"][0], document["request_ids"][0])
            record["digests"] = (digest(inputs[index].tobytes()), digest(np.ascontiguousarray(output).tobytes()))
            correct += int(output.argmax() == labels[index])
            latency_s, service_s = document["latency_s"][0], document["service_s"][0]
            overheads.append(1e3 * (record["done"] - record["sent"] - latency_s))
            queue_waits.append(1e3 * (latency_s - service_s))
            services.append(1e3 * service_s)
        else:
            print(f"# request {index} failed: {record.get('status')} {record.get('error', record.get('document'))}", flush=True)
        latencies.append(1e3 * (record["done"] - record["due"]))
        lags.append(1e3 * record["lag"])
    return {
        "records": records,
        "latencies_ms": latencies,
        "lags_ms": lags,
        "overheads_ms": overheads,
        "queue_waits_ms": queue_waits,
        "services_ms": services,
        "correct": correct,
        "wall_s": max(r["done"] for r in records) - started,
    }


def _split_cpus():
    """Server CPUs and load-generator CPUs: the last CPU for the gateway.

    Pinning keeps the two processes from trading places on the CPUs
    between runs, which otherwise moved the median latency by up to a
    third from one run to the next."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    return cpus[-1:], cpus[:-1]


def run(seed: int, seconds: float, tracer=None) -> Dict[str, object]:
    server_cpus, client_cpus = _split_cpus()
    own_cpus = os.sched_getaffinity(0)
    child = Child(server_cpus)
    os.sched_setaffinity(0, client_cpus)
    try:
        url = f"http://127.0.0.1:{child.ready['port']}"
        dtype = np.dtype(child.ready["input_dtype"])
        # A traced run needs a slice for each of its halves.
        measured = max(1 if tracer is None else 2, int(RATE_RPS * seconds // SLICE)) * SLICE
        warm = int(round(RATE_RPS * WARMUP_S / 100.0)) * 100
        inputs, labels, bodies, rng = _requests(seed, warm + measured, dtype)
        warm_window = _window(url, inputs[:warm], labels[:warm], bodies[:warm], _arrivals(rng, warm))
        if tracer is None:
            windows = [(inputs[warm:], labels[warm:], bodies[warm:])]
        else:
            half = warm + (measured // (2 * SLICE)) * SLICE
            windows = [
                (inputs[warm:half], labels[warm:half], bodies[warm:half]),
                (inputs[half:], labels[half:], bodies[half:]),
            ]
        results = []
        for number, (window_inputs, window_labels, window_bodies) in enumerate(windows):
            if number == 1:
                child.ask("trace", "ok")
            results.append(
                _window(url, window_inputs, window_labels, window_bodies,
                        _arrivals(rng, len(window_bodies)), tracer if number == 1 else None)
            )
        report = json.loads(child.ask("report", "REPORT ", timeout_s=300.0))
    finally:
        child.close()
        os.sched_setaffinity(0, own_cpus)
    return _summarize(child.ready, warm_window, results, report, tracer is not None)


def _summarize(ready, warm_window, results, report, traced) -> Dict[str, object]:
    verified = {
        (engine, rid): (input_digest, output_digest)
        for engine, rid, input_digest, output_digest in report["rows"]
    }
    if report["error"]:
        print(f"# server-side parity FAILED: {report['error']}", flush=True)
    failed = 0
    attempted = 0
    for window in [warm_window] + results:
        for record in window["records"]:
            attempted += 1
            if record.get("status") != 200:
                failed += 1
            elif report["verified"] != len(report["rows"]) or verified.get(record["key"]) != record["digests"]:
                failed += 1
    main = results[0]
    latencies = main["latencies_ms"]
    slices = [latencies[start:start + SLICE] for start in range(0, len(latencies), SLICE)]
    p50 = median([median(part) for part in slices])
    # Lower quartile of the slice p99s: bursts of host interference lasting
    # seconds lift the p99 of the slices they hit, while a slower program
    # lifts every slice.
    slice_p99 = sorted(percentile(part, 99) for part in slices)
    p99 = slice_p99[len(slice_p99) // 4]
    lag = median(main["lags_ms"])
    valid = lag <= MAX_LAG_SHARE * p50
    info("gateway-poisson", {
        "rate_rps": RATE_RPS,
        "clients": CLIENTS,
        "requests": len(latencies),
        "slices": len(slices),
        "slice_p50_ms": [median(part) for part in slices],
        "slice_p99_ms": slice_p99,
        "p99_samples_beyond_per_slice": [sum(1 for v in part if v > percentile(part, 99)) for part in slices],
        "lag_ms_p50": lag,
        "lag_ms_max": max(main["lags_ms"]),
        "valid": valid,
        "server_setups_s": ready["setups_s"],
        "served_rows": len(report["rows"]),
        "verified_rows": report["verified"],
    })
    if not valid:
        print(f"# run INVALID: dispatcher lag {lag:.3f} ms against p50 {p50:.3f} ms", flush=True)
    metrics = {
        "setup_s": ready["setup_s"],
        "success_rate": (attempted - failed) / attempted,
        "throughput_per_s": len(latencies) / main["wall_s"],
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "accuracy": main["correct"] / len(latencies),
    }
    layer: Dict[str, float] = {}
    child_errors: Dict[str, float] = {}
    if traced:
        window = results[1]
        layer.update({
            "gateway.wire_overhead_ms": median(window["overheads_ms"]),
            "gateway.wire.codec_us": report["codec_us"],
            "serve.engine.queue_wait_ms": median(window["queue_waits_ms"]),
            "serve.engine.service_ms": median(window["services_ms"]),
            "serve.engine.forwards": float(report["forwards"]),
            "serve.engine.mean_batch": report["served"] / max(1, report["forwards"]),
            "gateway.registry.rejected": float(report["rejected"]),
            "loadgen.lag_ms": median(window["lags_ms"]),
            "trace.overhead_pct": 100.0 * (median(window["latencies_ms"]) / p50 - 1.0),
        })
        child_errors = report["thread_errors"]
    return {
        "attempted": attempted,
        "failed": failed,
        "valid": valid,
        "metrics": metrics,
        "layer": layer,
        "child_thread_errors": child_errors,
    }
