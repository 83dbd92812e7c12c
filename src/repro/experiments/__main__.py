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

from ..data.synthetic import DATASET_MAKERS
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
    parser.add_argument("experiment", choices=["list", *sorted(EXPERIMENTS)],
                        metavar="experiment",
                        help="experiment id, or 'list' to enumerate")
    parser.add_argument("--scale", default="small", choices=("bench", "small", "paper"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--datasets", nargs="*", default=None,
                        choices=sorted(DATASET_MAKERS),
                        help="dataset keys (experiments that accept them)")
    parser.add_argument("--output", default=None,
                        help="write the result rows as JSON to this path")
    parser.add_argument("--jobs", type=int, default=None,
                        help="evaluate sweep grids (model x split x seed cells) "
                             "across this many worker processes; 0 or negative "
                             "means all CPU cores (default: $REPRO_SWEEP_JOBS "
                             "or serial).  Parallel metrics are bit-identical "
                             "to serial — see repro.experiments.parallel")
    from ..engine import add_cache_arguments

    add_cache_arguments(parser)
    args = parser.parse_args(argv)

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
        if "datasets" in inspect.signature(EXPERIMENTS[args.experiment]).parameters:
            kwargs["datasets"] = args.datasets
        else:
            print(f"[note: {args.experiment} does not take --datasets; ignored]")
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
