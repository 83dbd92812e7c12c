"""CLI: ``python -m repro.experiments <experiment> [--scale bench|small|paper]``.

Examples::

    python -m repro.experiments table4_overall --scale small
    python -m repro.experiments fig8_ratio --datasets pems-bay melbourne
    python -m repro.experiments table9_ring --output results/table9.json
    python -m repro.experiments list
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from pathlib import Path

from .registry import EXPERIMENTS, run_experiment


def _jsonable(value):
    """Coerce experiment outputs (Metrics, numpy scalars) to JSON types."""
    if hasattr(value, "as_dict"):
        return value.as_dict()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, str):
        try:
            return value.item()
        except (AttributeError, ValueError):
            return str(value)
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce one of the paper's tables/figures.",
    )
    parser.add_argument("experiment", help="experiment id, or 'list' to enumerate")
    parser.add_argument("--scale", default="small", choices=("bench", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--datasets", nargs="*", default=None,
                        help="dataset keys (experiments that accept them)")
    parser.add_argument("--output", default=None,
                        help="write the result rows as JSON to this path")
    parser.add_argument("--backend", default=None,
                        help="array backend for all models (default: REPRO_BACKEND "
                             "env var or numpy_ref); see repro.backend")
    parser.add_argument("--device", default=None,
                        help="device for accelerator backends (cpu, cuda, cuda:N); "
                             "numpy backends accept cpu only")
    parser.add_argument("--dtype", default=None, choices=("float32", "float64"),
                        help="compute dtype for accelerator backends (float32 "
                             "trades bit-parity for speed)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="evaluate sweep grids (model x split x seed cells) "
                             "across this many worker processes; 0 or negative "
                             "means all CPU cores (default: $REPRO_SWEEP_JOBS "
                             "or serial).  Parallel metrics are bit-identical "
                             "to serial — see repro.experiments.parallel")
    parser.add_argument("--service", action="store_true",
                        help="route test predictions through the batched/cached "
                             "ForecastService (experiments that support it)")
    parser.add_argument("--serve-concurrency", type=int, default=0,
                        help="with --service: additionally replay the window "
                             "traffic from this many concurrent client threads "
                             "through the micro-batching scheduler and report "
                             "throughput + p50/p95/p99 latency")
    parser.add_argument("--serve-wire", action="store_true",
                        help="with --serve-concurrency: replay the same "
                             "concurrent traffic over an in-process HTTP "
                             "server and report Wire-prefixed "
                             "throughput/latency columns")
    from ..engine import add_cache_arguments

    add_cache_arguments(parser)
    args = parser.parse_args(argv)

    if args.backend is not None or args.device is not None or args.dtype is not None:
        from ..backend import resolve_backend, set_backend

        set_backend(resolve_backend(args.backend, args.device, args.dtype))

    from ..engine import open_store, store_config_from_args

    cache_config = store_config_from_args(args)
    if cache_config is not None:
        open_store(cache_config)

    if args.jobs is not None:
        # Environment-level default: every run_matrix call in the chosen
        # experiment (table runners, ablations, ratio sweeps) picks it
        # up without per-runner plumbing, and spawn workers re-pin it to
        # 1 so grids can never nest pools.
        from .parallel import JOBS_ENV

        os.environ[JOBS_ENV] = str(args.jobs)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    kwargs: dict = {"scale_name": args.scale, "seed": args.seed}
    if args.datasets is not None:
        kwargs["datasets"] = args.datasets
    if args.service:
        kwargs["use_service"] = True
    if args.serve_concurrency > 0:
        kwargs["use_service"] = True  # the concurrent replay rides on the service
        kwargs["serve_concurrency"] = args.serve_concurrency
    if args.serve_wire:
        kwargs["use_service"] = True
        kwargs["serve_wire"] = True
    # Drop optional kwargs the experiment's signature does not accept
    # (e.g. --service on a datasets-only experiment) instead of probing
    # with TypeError retries, which would both re-run expensive fits and
    # swallow genuine TypeErrors raised inside the experiment body.
    runner = EXPERIMENTS.get(args.experiment)
    if runner is not None:
        parameters = inspect.signature(runner).parameters
        accepts_any = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
        )
        if not accepts_any:
            for key in ("use_service", "datasets", "serve_concurrency",
                        "serve_wire"):
                if key in kwargs and key not in parameters:
                    kwargs.pop(key)
                    print(f"[note: {args.experiment} does not take --{key.replace('_', '-')}; ignored]")
    began = time.perf_counter()
    result = run_experiment(args.experiment, **kwargs)
    elapsed = time.perf_counter() - began
    print(result["text"])
    print(f"\n[{args.experiment} @ scale={args.scale} in {elapsed:.1f}s]")
    if args.output:
        from ..backend import get_backend

        payload = {
            "experiment": args.experiment,
            "scale": args.scale,
            "seed": args.seed,
            "backend": get_backend().name,
            "elapsed_seconds": round(elapsed, 2),
            "rows": _jsonable(result.get("rows", [])),
        }
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=2))
        print(f"[wrote {path}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
