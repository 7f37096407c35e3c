"""Benchmark entry point.

    python3 perfbench/run.py --workload <quantize|serve-offline|gateway-poisson>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. With ``--trace 0`` the last line of
stdout is one JSON object carrying every end-to-end metric; with
``--trace 1`` the run is split into an untraced half and a traced half
and the JSON carries every per-layer metric instead (spans are written
to ``.bench_out/``). Lines before it, prefixed ``#``, describe the host
and the run. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import END_TO_END, OUT, PER_LAYER, SRC, ThreadErrors, info  # noqa: E402

WORKLOADS = ("quantize", "serve-offline", "gateway-poisson")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Worker and child processes import the program from the same tree.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )

    from common import fingerprint, stop_helper_processes

    started = time.perf_counter()
    info("host", fingerprint())
    info("args", vars(args))
    errors = ThreadErrors().install()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    try:
        if args.workload == "quantize":
            import wl_quantize as workload
        elif args.workload == "serve-offline":
            import wl_serve as workload
        else:
            import wl_gateway as workload
        outcome = workload.run(args.seed, args.seconds, tracer)
    finally:
        stop_helper_processes()
        errors.uninstall()
        if tracer is not None:
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}-{os.getpid()}.jsonl")

    if args.trace:
        layer = {name: 0.0 for name in PER_LAYER}
        layer.update(errors.metrics())
        for name, value in outcome.get("child_thread_errors", {}).items():
            layer[name] += value
        layer.update(outcome["layer"])
        from layers import preset_layer_costs

        layer.update(preset_layer_costs())
        values, units = layer, PER_LAYER
    else:
        values, units = outcome["metrics"], END_TO_END
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    for name, value in values.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is not finite: {value}")
    info("thread_errors", errors.metrics())
    info("wall_s", time.perf_counter() - started)

    failed = int(outcome["failed"])
    valid = outcome.get("valid", True)
    result = {
        "correct": failed == 0 and bool(valid),
        "attempted": int(outcome["attempted"]),
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": units[name]} for name in units
        },
    }
    print(json.dumps(result, allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
