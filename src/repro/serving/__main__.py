"""CLI: launch and exercise the wire serving stack.

Examples::

    # Fit two small models and write a servable checkpoint bundle
    python -m repro.serving demo-bundle --output-dir /tmp/bundle --epochs 2

    # Serve it: 4 worker processes behind one SO_REUSEPORT port
    python -m repro.serving serve --checkpoint-dir /tmp/bundle \
        --port 8080 --workers 4

    # Query it
    python -m repro.serving query --port 8080 --model stsm/pems-bay --start 420
"""

from __future__ import annotations

import argparse
import json
import sys

from ..engine import add_cache_arguments


def positive_int(text: str) -> int:
    """argparse type: an integer of at least 1 (else a usage error)."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("serve", help="serve a checkpoint bundle over HTTP")
    p.add_argument("--checkpoint-dir", required=True,
                   help="bundle directory (manifest.json + per-model .npz)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8080,
                   help="public port (0 picks an ephemeral one)")
    p.add_argument("--workers", type=positive_int, default=1,
                   help="worker processes behind SO_REUSEPORT "
                        "(1 = single process, per-connection threads)")
    p.add_argument("--max-batch", type=positive_int, default=64)
    p.add_argument("--max-queue", type=positive_int, default=1024)
    p.add_argument("--admission", choices=("block", "reject"), default="block")
    p.add_argument("--cache-size", type=positive_int, default=1024,
                   help="per-model result-cache capacity")
    p.add_argument("--no-warm-up", action="store_true",
                   help="skip manifest warm-up windows (serve cold)")
    p.add_argument("--state-dir", default=None,
                   help="where worker-<i>.json state files go "
                        "(default: the checkpoint dir)")
    p.add_argument("--drain-timeout-s", type=float, default=30.0)
    # Shared cache surface: --cache-dir overrides the bundle's own
    # cache/ tier; workers always open it read-only (never GC), so
    # --cache-max-bytes is accepted for CLI uniformity but quota
    # enforcement belongs to whichever writer owns the tier.
    add_cache_arguments(p)


def _add_demo_bundle(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "demo-bundle",
        help="fit small STSM models on synthetic data and save a bundle",
    )
    p.add_argument("--output-dir", required=True)
    p.add_argument("--datasets", nargs="*", default=["pems-bay", "melbourne"])
    p.add_argument("--sensors", type=int, default=16)
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--epochs", type=int, default=1)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--warmup-windows", type=int, default=16,
                   help="window starts recorded in the manifest for "
                        "server-side warm-up")
    p.add_argument("--with-cache", action="store_true",
                   help="export a warmed artifact store into the bundle's "
                        "cache/ directory (DTW pairs + precomputed warm-up "
                        "forecast blocks), so servers boot hot")


def _add_query(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("query", help="query a running server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--model", default=None,
                   help="model key (default: first hosted model)")
    p.add_argument("--start", type=int, nargs="*", default=None,
                   help="window start(s); omit for server stats only")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .transport import ServeConfig, launch

    config = ServeConfig(
        checkpoint_dir=args.checkpoint_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        admission=args.admission,
        cache_size=args.cache_size,
        warm_up=not args.no_warm_up,
        drain_timeout_s=args.drain_timeout_s,
        state_dir=args.state_dir,
        cache_dir=args.cache_dir,
        cache_memory_items=args.cache_memory_items,
    )
    print(f"[serving] bundle={args.checkpoint_dir} workers={args.workers} "
          f"port={args.port} (SIGTERM drains gracefully)")
    return launch(config)


def _cmd_demo_bundle(args: argparse.Namespace) -> int:
    import numpy as np

    from ..core import STSMConfig, STSMForecaster
    from ..data import WindowSpec, space_split, temporal_split
    from ..data.synthetic import make_dataset
    from ..engine import ArtifactStore, open_store
    from ..evaluation import forecast_window_starts
    from .service import ForecastService
    from .transport import BundleEntry, save_bundle

    # A *private* store installed process-wide: the fits below park
    # their DTW pairs and masked adjacencies in it automatically, so
    # the exported bundle cache carries fit artifacts too, not just
    # the warm-up forecast blocks — but never the contents of a
    # pre-existing $REPRO_CACHE_DIR tier, which would bloat the bundle
    # with every unrelated past fit's artifacts.
    store = open_store(store=ArtifactStore()) if args.with_cache else None
    entries: dict[str, BundleEntry] = {}
    for offset, name in enumerate(args.datasets):
        seed = args.seed + offset
        recipe = {"name": name, "num_sensors": args.sensors,
                  "num_days": args.days, "seed": seed}
        dataset = make_dataset(name, num_sensors=args.sensors,
                               num_days=args.days, seed=seed)
        split = space_split(dataset.coords, "horizontal")
        spec = WindowSpec(input_length=8, horizon=8)
        train_ix, _ = temporal_split(dataset.num_steps)
        config = STSMConfig(
            hidden_dim=args.hidden, num_blocks=1, tcn_levels=2, gcn_depth=1,
            epochs=args.epochs, patience=args.epochs, batch_size=8,
            window_stride=8, top_k=min(6, args.sensors - 1), seed=seed,
        )
        model = STSMForecaster(config)
        print(f"[demo-bundle] fitting stsm/{name} "
              f"({args.sensors} sensors x {args.days} days) ...")
        model.fit(dataset, split, spec, train_ix)
        starts = forecast_window_starts(dataset, spec,
                                        max_windows=args.warmup_windows)
        if store is not None:
            # Precompute the warm-up blocks through the serving path and
            # park them in the store under the model's content scope —
            # the exported cache/ tier then serves them on worker boot.
            ForecastService(model, store=store).forecast(np.asarray(starts))
        entries[f"stsm/{name}"] = BundleEntry(
            forecaster=model,
            dataset=recipe,
            warmup_starts=[int(s) for s in np.asarray(starts)],
        )
    manifest = save_bundle(args.output_dir, entries, store=store)
    print(f"[demo-bundle] wrote {manifest} ({len(entries)} models"
          f"{', warmed cache' if store is not None else ''})")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .transport import ForecastClient

    with ForecastClient(args.host, args.port) as client:
        models = client.models()
        model = args.model if args.model is not None else models[0]
        if args.start:
            block = client.forecast(model, args.start)
            print(f"{model}: starts={args.start} -> shape={block.shape} "
                  f"mean={float(block.mean()):.4f}")
        stats = client.stats()
        print(json.dumps({
            "worker": stats["worker"],
            "models": models,
            "transport": stats["transport"],
            "totals": stats["runtime"]["totals"],
        }, indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Wire-level serving: bundle, serve, query.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_serve(sub)
    _add_demo_bundle(sub)
    _add_query(sub)
    args = parser.parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "demo-bundle":
        return _cmd_demo_bundle(args)
    return _cmd_query(args)


if __name__ == "__main__":
    sys.exit(main())
