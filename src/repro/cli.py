"""Command-line interface: ``python -m repro <command>``.

Commands
--------
quantize
    Pre-train a model on a synthetic dataset and run the CQ pipeline,
    printing the full report (and optionally saving a checkpoint).
figure
    Regenerate one of the paper's figures (2, 3, 4, 5, 6, 7,
    ``ablations`` or ``granularity``) and print it. ``--all`` runs
    every figure through the sweep runner (``--jobs N`` processes,
    results cached under ``.cache/results/``).
sweep
    Parallel, resumable accuracy-versus-budget sweep over a B grid and
    seed set, finishing with a Pareto frontier + knee report. Re-runs
    only grid points missing from the result cache, so a killed sweep
    resumes where it stopped.
cost
    Run the CQ pipeline and print the hardware cost sheet of the
    resulting arrangement (storage / energy / latency vs FP32 and vs
    uniform quantization at the same average bits).
serve
    Load a CQW1 serving artifact (written by ``quantize
    --save-artifact``), reconstruct the model bit-exactly from the
    integer codes, and replay a traffic trace through the
    micro-batching inference engine — by default a backlog drained by
    ``--concurrency`` closed-loop clients, or an open-loop ``--trace``
    at ``--rate`` — printing a throughput/latency report and a
    bit-exact parity check. ``--engines N`` fans the load
    across N engines, each serving a private model clone leased from
    the content-hash artifact cache; ``--repeat N`` starts N serving
    rounds in sequence to demonstrate the cache.
gateway
    Serve one or more CQW1 artifacts over HTTP (stdlib asyncio, no
    extra deps): ``repro gateway mlp=artifact.cqw1`` registers each
    ``name=path`` pair in a multi-artifact registry and exposes
    ``POST /v1/predict/<name>``, ``GET /healthz``, ``/v1/artifacts``
    and ``/v1/stats``. Per-artifact admission budgets shed overload
    with HTTP 429 + ``Retry-After``; SIGTERM drains gracefully.
predict
    One-shot inference: answer a saved batch (``.npz``/``.npy``) from a
    serving artifact and print the predicted classes. ``--url`` sends
    the batch to a running gateway instead of loading the artifact
    locally.
lint
    Run the AST invariant linter (``repro.analysis``) over Python
    sources: determinism, strict-JSON, lock-discipline,
    thread-lifecycle and bare-except rules. Exits non-zero on findings;
    ``--format json`` emits a stable, sorted document for CI diffing.
models / datasets
    List the registered model architectures / dataset presets.
"""

from __future__ import annotations

import argparse
import sys
import zipfile
from typing import Dict, List, Optional

from repro.analysis.engine import ALL_RULE_IDS
from repro.core.config import CQConfig
from repro.core.pipeline import ClassBasedQuantizer
from repro.core.report import summarize
from repro.experiments.presets import SCALES, get_pretrained
from repro.models.registry import available_models
from repro.runner.registry import FIGURE_NAMES as _FIGURES
from repro.serve.pool import AutoscalePolicy
from repro.serve.session import ServeConfig
from repro.serve.trace import TRACE_KINDS
from repro.utils.checkpoint import save_checkpoint


def _add_serving_flags(
    parser: argparse.ArgumentParser,
    max_batch: int = ServeConfig.max_batch_size,
    fanout: bool = True,
) -> None:
    """Add the serving flags of ``serve``, ``gateway`` and ``predict``
    (:func:`_serve_fields` reads them back). Each feeds a
    :class:`~repro.serve.session.ServeConfig` field, which documents it
    and gives its default (``predict`` raises the batch cap); ``fanout``
    adds the batching window and the engine fan-out flags."""
    parser.add_argument("--max-batch", type=int, default=max_batch, help="batch-size cap")
    parser.add_argument(
        "--backend",
        choices=("float", "integer"),
        default=ServeConfig.backend,
        help="execution backend: 'float' serves the reconstructed "
        "weights, 'integer' executes the packed CQW1 codes with "
        "integer MACs (parity checked against the derived rescale "
        "bound)",
    )
    if not fanout:
        return
    parser.add_argument(
        "--batch-window-ms",
        type=float,
        default=ServeConfig.batch_window_s * 1e3,
        help="micro-batching window: how long a batch formed from a backlog "
        "waits to fill (a request reaching an idle engine runs at once)",
    )
    parser.add_argument(
        "--engines",
        type=int,
        default=ServeConfig.engines,
        help="engines serving each artifact concurrently (each gets a "
        "private model clone leased from the cache)",
    )
    parser.add_argument(
        "--autoscale",
        action="store_true",
        help="scale engines from queue depth between --engines (min) and "
        "--max-engines instead of a fixed fan-out",
    )
    parser.add_argument(
        "--max-engines",
        type=int,
        default=AutoscalePolicy.max_engines,
        help="autoscaler upper bound on leased engines",
    )


def _serve_fields(args) -> Dict[str, object]:
    """The :class:`~repro.serve.session.ServeConfig` fields set by the
    serving flags of ``args``; a flag its command lacks leaves the
    field at its default. Raises ``ValueError`` on bad autoscale bounds."""
    fields: Dict[str, object] = {"max_batch_size": args.max_batch, "backend": args.backend}
    if "engines" not in args:
        return fields
    processes = getattr(args, "processes", 0)
    if args.autoscale:
        fields["autoscale"] = AutoscalePolicy(
            min_engines=processes or args.engines, max_engines=args.max_engines
        )
    if processes:
        fields.update(pool="process", workers=processes)
    fields.update(
        batch_window_s=args.batch_window_ms / 1e3,
        engines=args.engines,
        max_pending=getattr(args, "max_pending", ServeConfig.max_pending),
    )
    return fields


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Class-based Quantization for Neural Networks (DATE 2023) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    quantize = sub.add_parser("quantize", help="run the CQ pipeline on a preset model")
    quantize.add_argument("--model", default="vgg-small", choices=available_models())
    quantize.add_argument("--dataset", default="synth10", choices=("synth10", "synth100"))
    quantize.add_argument("--scale", default="tiny", choices=tuple(SCALES))
    quantize.add_argument("--bits", type=float, default=2.0, help="average weight-bit budget B")
    quantize.add_argument("--act-bits", type=int, default=None, help="activation bit-width")
    quantize.add_argument("--max-bits", type=int, default=4, help="search range upper end N")
    quantize.add_argument("--refine-epochs", type=int, default=8)
    quantize.add_argument("--seed", type=int, default=0)
    quantize.add_argument("--save", default=None, help="checkpoint path (.npz)")
    quantize.add_argument(
        "--save-artifact",
        default=None,
        metavar="PATH",
        help="write the packed CQW1 serving artifact (bitstream + model "
        "sidecar) consumed by `repro serve` / `repro predict`",
    )
    from repro.quant.export import STORAGE_DTYPE_BITS

    quantize.add_argument(
        "--sidecar-dtype",
        default="float32",
        choices=tuple(STORAGE_DTYPE_BITS),
        help="storage dtype of the artifact's model sidecar (float64 "
        "writes the legacy lossless CQS1 layout; float32/float16 write "
        "the compact tagged CQS2 layout)",
    )

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", nargs="?", choices=_FIGURES)
    figure.add_argument(
        "--all",
        action="store_true",
        help="run every figure via the sweep runner (cached, parallel)",
    )
    figure.add_argument("--scale", default="tiny", choices=tuple(SCALES))
    figure.add_argument("--seed", type=int, default=0)
    figure.add_argument("--jobs", type=int, default=1, help="worker processes for --all")
    figure.add_argument("--cache-dir", default=None, help="result cache (default .cache/results)")

    sweep = sub.add_parser(
        "sweep", help="parallel resumable budget sweep + Pareto report"
    )
    sweep.add_argument("--model", default="vgg-small", choices=available_models())
    sweep.add_argument("--dataset", default="synth10", choices=("synth10", "synth100"))
    sweep.add_argument("--scale", default="tiny", choices=tuple(SCALES))
    sweep.add_argument(
        "--budgets",
        default="1.0,1.5,2.0,2.5,3.0",
        help="comma-separated average weight-bit budgets B",
    )
    sweep.add_argument("--seeds", default="0", help="comma-separated seeds")
    sweep.add_argument("--max-bits", type=int, default=4, help="search range upper end N")
    sweep.add_argument("--act-bits", type=int, default=None, help="activation bit-width")
    sweep.add_argument("--refine-epochs", type=int, default=None)
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.add_argument("--cache-dir", default=None, help="result cache (default .cache/results)")
    sweep.add_argument(
        "--cost",
        default="storage_kib",
        choices=("storage_kib", "energy_uj", "latency_us", "avg_bits"),
        help="cost axis of the Pareto report",
    )

    cost = sub.add_parser("cost", help="hardware cost sheet of a CQ arrangement")
    cost.add_argument("--model", default="vgg-small", choices=available_models())
    cost.add_argument("--dataset", default="synth10", choices=("synth10", "synth100"))
    cost.add_argument("--scale", default="tiny", choices=tuple(SCALES))
    cost.add_argument("--bits", type=float, default=2.0, help="average weight-bit budget B")
    cost.add_argument("--act-bits", type=int, default=2, help="activation bit-width")
    cost.add_argument("--refine-epochs", type=int, default=8)
    cost.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="serve a CQW1 artifact under a replayed request load"
    )
    serve.add_argument("--artifact", required=True, help="CQW1 serving artifact path")
    serve.add_argument("--requests", type=int, default=64, help="replayed requests")
    serve.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="closed-loop clients of the backlog trace (at most this many "
        "requests outstanding)",
    )
    _add_serving_flags(serve)
    serve.add_argument(
        "--processes",
        type=int,
        default=0,
        help="serve from this many worker processes mapping one "
        "shared-memory copy of the artifact (true parallel forwards; "
        "0 = in-process thread engines); excludes --engines, and with "
        "--autoscale it is the lower bound",
    )
    serve.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="engine starts; >1 demonstrates the content-hash artifact cache",
    )
    serve.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the bit-exact replay parity check",
    )
    serve.add_argument(
        "--trace",
        choices=TRACE_KINDS,
        default="backlog",
        help="arrival process: 'backlog' queues every request at t=0 and "
        "replays it from --concurrency clients; the others are open-loop "
        "replays at --rate (which --autoscale and --chaos need)",
    )
    serve.add_argument(
        "--rate",
        type=float,
        default=200.0,
        help="mean arrival rate of --trace, requests/s",
    )
    serve.add_argument(
        "--trace-seed", type=int, default=0, help="trace arrival-process seed"
    )
    serve.add_argument(
        "--burst-factor",
        type=float,
        default=8.0,
        help="bursty trace: on-phase intensity multiplier (>= 1)",
    )
    serve.add_argument(
        "--duty",
        type=float,
        default=0.2,
        help="bursty trace: fraction of each period spent bursting (0..1)",
    )
    serve.add_argument(
        "--slo-ms",
        type=float,
        default=None,
        help="latency SLO; the trace report includes attainment and a "
        "p95-vs-SLO verdict",
    )
    serve.add_argument(
        "--chaos",
        action="store_true",
        help="kill one engine's worker mid-trace to exercise lease release, "
        "re-lease and request re-dispatch",
    )

    gateway = sub.add_parser(
        "gateway",
        help="serve CQW1 artifacts over HTTP (multi-artifact registry)",
        description=(
            "Stand up the network serving gateway: each name=path pair "
            "becomes an artifact served at POST /v1/predict/<name>. "
            "Runs until SIGTERM/SIGINT, then drains gracefully."
        ),
    )
    gateway.add_argument(
        "artifacts",
        nargs="+",
        metavar="NAME=PATH",
        help="artifact to register, as name=path-to-.cqw1 (repeatable)",
    )
    gateway.add_argument("--host", default="127.0.0.1", help="bind address")
    gateway.add_argument(
        "--port", type=int, default=8707, help="bind port (0 picks a free one)"
    )
    _add_serving_flags(gateway)
    gateway.add_argument(
        "--budget",
        type=int,
        default=256,
        help="per-artifact admission budget (rows pending before 429)",
    )
    gateway.add_argument(
        "--max-pending",
        type=int,
        default=ServeConfig.max_pending,
        help="per-engine queue bound (QueueFull past it; default unbounded)",
    )
    gateway.add_argument(
        "--preload",
        action="store_true",
        help="load every artifact at startup instead of on first request",
    )

    predict = sub.add_parser(
        "predict", help="one-shot inference on a saved batch from an artifact"
    )
    predict.add_argument(
        "--artifact",
        default=None,
        help="CQW1 serving artifact path (local mode)",
    )
    predict.add_argument(
        "--url",
        default=None,
        help="gateway base URL (e.g. http://127.0.0.1:8707) — send the "
        "batch to a running `repro gateway` instead of loading locally; "
        "--artifact then names the registered artifact",
    )
    predict.add_argument(
        "--input", required=True, help=".npz/.npy holding the input batch (N,C,H,W)"
    )
    predict.add_argument(
        "--key", default="images", help="array name inside a .npz input"
    )
    predict.add_argument(
        "--output", default=None, help="write logits + labels to this .npz"
    )
    _add_serving_flags(predict, max_batch=32, fanout=False)

    lint = sub.add_parser(
        "lint",
        help="run the repro AST invariant linter (reprolint)",
        description=(
            "Static analysis over Python sources enforcing the repo's "
            "determinism, strict-JSON and lock/lifecycle conventions. "
            "Exits 0 on zero findings, 1 otherwise."
        ),
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        choices=ALL_RULE_IDS,
        default=None,
        help="run only this rule (repeatable; default: all rules)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is stable/sorted for CI diffing)",
    )

    sub.add_parser("models", help="list registered model architectures")
    sub.add_parser("datasets", help="list dataset presets")
    return parser


def _run_quantize(args) -> int:
    model, dataset, fp_accuracy = get_pretrained(
        args.model, args.dataset, scale=args.scale, seed=args.seed
    )
    print(f"pre-trained {args.model} on {args.dataset}: FP accuracy {fp_accuracy:.4f}")
    config = CQConfig(
        target_avg_bits=args.bits,
        max_bits=args.max_bits,
        act_bits=args.act_bits,
        refine_epochs=args.refine_epochs,
        samples_per_class=min(16, dataset.config.val_per_class),
        seed=args.seed,
    )
    result = ClassBasedQuantizer(config).quantize(model, dataset)
    print(summarize(result))
    if args.save:
        save_checkpoint(
            result.model,
            args.save,
            metadata={
                "bit_map": result.bit_map.to_dict(),
                "accuracy": result.accuracy_after_refine,
            },
        )
        print(f"saved quantized model to {args.save}")
    if args.save_artifact:
        from repro.serve import artifact_from_result

        artifact = artifact_from_result(
            result,
            model_name=args.model,
            dataset_name=args.dataset,
            dataset=dataset,
            scale=args.scale,
            seed=args.seed,
            sidecar_dtype=args.sidecar_dtype,
        )
        size = artifact.save(args.save_artifact)
        print(
            f"saved serving artifact to {args.save_artifact}: {size} bytes "
            f"(payload {artifact.payload_nbytes} + sidecar "
            f"{artifact.sidecar_nbytes} @ {artifact.sidecar_dtype}; "
            f"{result.average_bits:.3f} avg weight bits, "
            f"x{artifact.export.compression_ratio():.1f} smaller than FP32)"
        )
    return 0


def _run_figure(args) -> int:
    if args.all == bool(args.number):
        print(
            "figure: specify exactly one of a figure number or --all",
            file=sys.stderr,
        )
        return 2
    if args.all:
        from repro.runner import SweepRunner, figure_units

        specs = figure_units(scale=args.scale, seed=args.seed)
        runner = SweepRunner(cache_dir=args.cache_dir, jobs=args.jobs)
        report = runner.run(specs)
        for outcome in report.outcomes:
            origin = "cached" if outcome.cached else "computed"
            print(f"=== {outcome.spec.name} ({origin}) ===")
            print(outcome.rendered or "(no rendering)")
            print()
        print(report.summary())
        return 0

    from repro.experiments import (
        ablations,
        fig2,
        fig3,
        fig4,
        fig5,
        fig6,
        fig7,
        granularity,
    )

    modules = {
        "2": fig2,
        "3": fig3,
        "4": fig4,
        "5": fig5,
        "6": fig6,
        "7": fig7,
        "ablations": ablations,
        "granularity": granularity,
    }
    module = modules[args.number]
    result = module.run(scale=args.scale, seed=args.seed)
    print(module.render(result))
    return 0


def _parse_grid(text: str, kind, flag: str):
    import math

    try:
        values = tuple(kind(part) for part in text.split(",") if part.strip())
    except ValueError:
        values = ()
    if not values or not all(math.isfinite(value) for value in values):
        raise SystemExit(
            f"sweep: {flag} must be a comma-separated list of finite "
            f"numbers, got {text!r}"
        )
    return values


def _run_sweep(args) -> int:
    from repro.experiments import budget_sweep
    from repro.runner import SweepRunner, budget_sweep_units

    budgets = _parse_grid(args.budgets, float, "--budgets")
    seeds = _parse_grid(args.seeds, int, "--seeds")
    specs = budget_sweep_units(
        model=args.model,
        dataset=args.dataset,
        budgets=budgets,
        seeds=seeds,
        scale=args.scale,
        max_bits=args.max_bits,
        act_bits=args.act_bits,
        refine_epochs=args.refine_epochs,
    )
    runner = SweepRunner(cache_dir=args.cache_dir, jobs=args.jobs)
    report = runner.run(specs)
    points = [budget_sweep.point_from_payload(result) for result in report.results]
    print(budget_sweep.render(budget_sweep.BudgetSweepResult(points=points), cost=args.cost))
    print()
    print(report.summary())
    return 0


def _run_cost(args) -> int:
    import numpy as np

    from repro.hw import comparison_table, cost_summary, layer_cost_table, profile_model
    from repro.quant.bitmap import BitWidthMap

    model, dataset, fp_accuracy = get_pretrained(
        args.model, args.dataset, scale=args.scale, seed=args.seed
    )
    print(f"pre-trained {args.model} on {args.dataset}: FP accuracy {fp_accuracy:.4f}")
    profile = profile_model(model, dataset.image_shape)
    config = CQConfig(
        target_avg_bits=args.bits,
        act_bits=args.act_bits,
        refine_epochs=args.refine_epochs,
        samples_per_class=min(16, dataset.config.val_per_class),
        seed=args.seed,
    )
    result = ClassBasedQuantizer(config).quantize(model, dataset)
    print(
        f"CQ accuracy: {result.accuracy_after_refine:.4f} at "
        f"{result.average_bits:.3f} average weight bits"
    )
    print()
    print(layer_cost_table(profile, result.bit_map, act_bits=args.act_bits))
    print()
    uniform_map = BitWidthMap(
        {
            name: np.full(len(result.bit_map[name]), int(round(args.bits)))
            for name in result.bit_map
        },
        {name: result.bit_map.weights_per_filter(name) for name in result.bit_map},
    )
    print(
        comparison_table(
            [
                cost_summary(profile, result.bit_map, args.act_bits, label="CQ"),
                cost_summary(profile, uniform_map, args.act_bits, label="uniform"),
            ]
        )
    )
    return 0


def _run_serve(args) -> int:
    from repro.experiments.presets import get_dataset
    from repro.serve import (
        ArtifactCache,
        ServingSession,
        TraceConfig,
        cycle_inputs,
        generate_trace,
        render_trace_replay,
        replay_trace,
        resolve_policy,
        verify_replay,
    )

    if args.engines < 1:
        print(f"serve: --engines must be >= 1, got {args.engines}", file=sys.stderr)
        return 2
    if args.processes < 0:
        print(
            f"serve: --processes must be >= 0, got {args.processes}",
            file=sys.stderr,
        )
        return 2
    if args.concurrency < 1:
        print(
            f"serve: --concurrency must be >= 1, got {args.concurrency}",
            file=sys.stderr,
        )
        return 2
    if (args.autoscale or args.chaos) and args.trace == "backlog":
        print("serve: --autoscale/--chaos need an open-loop --trace", file=sys.stderr)
        return 2
    try:
        config = ServeConfig(record_batches=not args.no_verify, **_serve_fields(args))
        resolve_policy(config)
        trace = generate_trace(
            TraceConfig(
                kind=args.trace,
                requests=args.requests,
                rate_rps=args.rate,
                seed=args.trace_seed,
                burst_factor=args.burst_factor,
                duty=args.duty,
            )
        )
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    cache = ArtifactCache()
    concurrency = args.concurrency if args.trace == "backlog" else None
    kill_at = 0.35 * max(trace.duration_s, 1e-3) if args.chaos else None
    inputs = None
    for round_index in range(max(1, args.repeat)):
        try:
            session = ServingSession(args.artifact, config=config, cache=cache)
        except (OSError, ValueError) as error:
            print(f"serve: {error}", file=sys.stderr)
            return 2
        artifact = session.artifact
        manifest = artifact.manifest
        if inputs is None:
            dataset = get_dataset(manifest.dataset, scale=manifest.scale, seed=manifest.seed)
            inputs = cycle_inputs(dataset.test_images, trace.rows)
            policy = config.autoscale
            if policy is not None:
                fanout_note = f"autoscale {policy.min_engines}..{policy.max_engines}"
            elif args.processes:
                fanout_note = f"across {args.processes} worker process(es)"
            else:
                fanout_note = f"across {args.engines} engine(s)"
            load_note = f"{trace.describe()}; {fanout_note}"
            if args.backend != "float":
                load_note += f"; {args.backend} backend"
            print(
                f"serving {manifest.model} ({manifest.dataset}/{manifest.scale}, "
                f"{artifact.size_breakdown()}, key {artifact.content_key}); "
                f"{load_note}"
            )
        try:
            run = replay_trace(
                session,
                inputs,
                trace,
                slo_ms=args.slo_ms,
                chaos_kill_at_s=kill_at,
                concurrency=concurrency,
            )
            print(render_trace_replay(run.payload, title=f"round {round_index + 1}"))
            if not args.no_verify:
                verified = verify_replay(
                    session, inputs, run, expected=len(inputs)
                )
                print(f"parity: OK ({verified} requests bit-exact)")
        except AssertionError as error:
            print(f"parity: FAILED — {error}", file=sys.stderr)
            return 1
        finally:
            session.close()
        print(session.stats.summary())
        print()
    print(cache.stats.summary())
    return 0


def _run_gateway(args) -> int:
    from repro.gateway import ArtifactRegistry, ArtifactSpec, GatewayServer

    specs = []
    registry = ArtifactRegistry()
    try:
        fields = _serve_fields(args)
        for pair in args.artifacts:
            name, sep, path = pair.partition("=")
            if not sep or not name or not path:
                raise ValueError(f"artifact must look like name=path, got {pair!r}")
            specs.append(
                ArtifactSpec(name=name, source=path, pending_budget=args.budget, **fields)
            )
        for spec in specs:
            registry.register(spec, preload=args.preload)
    except (OSError, ValueError) as error:
        registry.close()
        print(f"gateway: {error}", file=sys.stderr)
        return 2
    server = GatewayServer(registry, host=args.host, port=args.port)
    try:
        server.start()
    except OSError as error:
        print(f"gateway: cannot bind {args.host}:{args.port} — {error}",
              file=sys.stderr)
        return 1
    names = ", ".join(spec.name for spec in specs)
    print(f"gateway: serving {names} at {server.url}")
    print("gateway: POST /v1/predict/<name> | GET /healthz /v1/artifacts /v1/stats")
    print("gateway: SIGTERM/Ctrl-C drains and exits")
    server.serve_forever(handle_signals=True)
    print("gateway: drained, bye")
    return 0


def _predict_remote(args, images):
    """``(logits, report note)`` from the gateway at ``--url``, or
    ``None`` once its error is printed."""
    from repro.gateway import GatewayClient, GatewayHTTPError, decode_tensor

    with GatewayClient(args.url) as client:
        try:
            document = client.predict_raw(args.artifact, images)
        except GatewayHTTPError as error:
            print(f"predict: gateway answered {error}", file=sys.stderr)
            return None
    note = f" at {args.url} ({document['backend']} backend)"
    return decode_tensor(document["outputs"]), note


def _load_batch(path: str, key: str):
    """The input batch stored in ``path`` (``.npy``, or ``key`` of an
    ``.npz``); raises ``ValueError`` when the file holds no batch."""
    import numpy as np

    with open(path, "rb") as handle:
        magic = handle.read(6)
    # np.load would try to unpickle anything else, and refuse with advice
    # to allow pickles.
    if not magic.startswith((b"\x93NUMPY", b"PK\x03\x04", b"PK\x05\x06")):
        raise ValueError(f"{path} is not an .npy/.npz batch")
    loaded = np.load(path)
    if isinstance(loaded, np.ndarray):
        images = loaded
    else:
        with loaded:
            if key in loaded.files:
                images = loaded[key]
            elif len(loaded.files) == 1:
                images = loaded[loaded.files[0]]
            else:
                raise ValueError(
                    f"no array {key!r} in {path} (found {loaded.files})"
                )
    if images.ndim < 2:
        raise ValueError(f"expected a batch, got shape {images.shape}")
    return images


def _run_predict(args) -> int:
    import numpy as np

    from repro.serve import DEFAULT_CACHE, ServingSession

    if args.artifact is None:
        print(
            "predict: --artifact is required (a CQW1 path, or the "
            "registered name with --url)",
            file=sys.stderr,
        )
        return 2
    try:
        images = _load_batch(args.input, args.key)
        if args.url is None:
            artifact = DEFAULT_CACHE.load(args.artifact)
    except (OSError, ValueError, zipfile.BadZipFile) as error:
        print(f"predict: {error}", file=sys.stderr)
        return 2
    if args.url is not None:
        answer = _predict_remote(args, images)
        if answer is None:
            return 1
        logits, note = answer
    else:
        with ServingSession(artifact, config=ServeConfig(**_serve_fields(args))) as session:
            logits = session.predict_batch(images)
        note = f" ({args.backend} backend)" if args.backend != "float" else ""
    labels = logits.argmax(axis=1)
    for index, label in enumerate(labels):
        print(f"sample {index}: class {int(label)} (logit {logits[index, label]:+.4f})")
    print(f"predicted {len(labels)} samples from {args.artifact}{note}")
    if args.output:
        np.savez(args.output, logits=logits, labels=labels)
        print(f"wrote logits/labels to {args.output}")
    return 0


def _run_lint(args) -> int:
    from repro.analysis.engine import lint_paths
    from repro.analysis.report import render

    try:
        report = lint_paths(args.paths, rules=args.rule)
    except FileNotFoundError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    print(render(report, args.format))
    return 1 if report.findings else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "quantize":
        return _run_quantize(args)
    if args.command == "figure":
        return _run_figure(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "cost":
        return _run_cost(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "gateway":
        return _run_gateway(args)
    if args.command == "predict":
        return _run_predict(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "models":
        print("\n".join(available_models()))
        return 0
    if args.command == "datasets":
        print("synth10   — 10-class SynthCIFAR (CIFAR-10 stand-in)")
        print("synth100  — 100-class SynthCIFAR (CIFAR-100 stand-in)")
        return 0
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
