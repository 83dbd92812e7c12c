"""CLI: drive the streaming stack end to end.

Examples::

    # Deterministic clocked replay of a synthetic feed (content digest
    # is identical at any speedup)
    python -m repro.streaming replay --dataset pems-bay --sensors 12 \
        --days 1 --speedup 1000

    # Live serving demo: replay the feed, refit on each rolling-window
    # trigger, blue/green swap every refreshed model into a running
    # HTTP server, then print its /v1/stats streaming section
    python -m repro.streaming serve-live --dataset pems-bay \
        --sensors 12 --days 2 --refits 2 --speedup inf --http
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile


def _speedup(text: str) -> float:
    return float("inf") if text in ("inf", "max") else float(text)


def _add_replay(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("replay", help="replay a synthetic feed into a stream buffer")
    p.add_argument("--dataset", default="pems-bay")
    p.add_argument("--sensors", type=int, default=12)
    p.add_argument("--days", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speedup", type=_speedup, default=1000.0,
                   help="simulated-clock acceleration ('inf' = instant)")
    p.add_argument("--jitter", type=float, default=0.0,
                   help="seeded inter-arrival jitter fraction in [0, 1)")
    p.add_argument("--max-steps", type=int, default=None,
                   help="buffer retention bound (default: unbounded)")


def _add_serve_live(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve-live",
        help="replay + rolling refits + blue/green swaps into a live runtime",
    )
    p.add_argument("--dataset", default="pems-bay")
    p.add_argument("--sensors", type=int, default=12)
    p.add_argument("--days", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--speedup", type=_speedup, default=float("inf"))
    p.add_argument("--window-steps", type=int, default=None,
                   help="rolling training window (default: num_steps // 3)")
    p.add_argument("--refit-every", type=int, default=None,
                   help="steps between refit triggers (default: window // 2)")
    p.add_argument("--refit-epochs", type=int, default=1)
    p.add_argument("--refits", type=int, default=2)
    p.add_argument("--hidden", type=int, default=8)
    p.add_argument("--checkpoint-root", default=None,
                   help="per-refit checkpoint directory (default: a tempdir)")
    p.add_argument("--http", action="store_true",
                   help="serve over HTTP and probe /v1/stats on the wire "
                        "(default: in-process runtime)")
    p.add_argument("--probes", type=int, default=4,
                   help="forecast probes issued after each swap")
    # Shared cache surface: with --cache-dir (or $REPRO_CACHE_DIR) the
    # refit artifacts persist across runs, and --cache-max-bytes keeps
    # the long-running tier bounded (the scheduler GCs after each
    # refit's persist).
    from ..engine import add_cache_arguments

    add_cache_arguments(p)


def _cmd_replay(args: argparse.Namespace) -> int:
    from ..data.synthetic import make_dataset
    from . import FeedReplayer, StreamBuffer

    dataset = make_dataset(args.dataset, num_sensors=args.sensors,
                           num_days=args.days, seed=args.seed)
    buffer = StreamBuffer(dataset, max_steps=args.max_steps)
    replayer = FeedReplayer(dataset, buffer, speedup=args.speedup,
                            seed=args.seed, jitter=args.jitter)
    delivered = replayer.run()
    digest = hashlib.sha256(
        buffer.values(buffer.base, buffer.watermark).tobytes()
    ).hexdigest()[:16]
    print(json.dumps({
        "replay": replayer.stats,
        "buffer": buffer.stats,
        "content_sha256_16": digest,
        "delivered": delivered,
    }, indent=2))
    return 0


def _cmd_serve_live(args: argparse.Namespace) -> int:
    import numpy as np

    from ..core import STSMConfig
    from ..data import WindowSpec, space_split
    from ..data.synthetic import make_dataset
    from ..engine import ArtifactStore, reset_store, store_config_from_args
    from ..serving import ServingRuntime
    from . import FeedReplayer, LiveSwapBridge, RefitPolicy, RefitScheduler, StreamBuffer

    dataset = make_dataset(args.dataset, num_sensors=args.sensors,
                           num_days=args.days, seed=args.seed)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=8, horizon=8)
    window_steps = args.window_steps or max(spec.total + 24, dataset.num_steps // 3)
    refit_every = args.refit_every or max(1, window_steps // 2)
    policy = RefitPolicy(window_steps=window_steps, refit_every=refit_every,
                         refit_epochs=args.refit_epochs, max_refits=args.refits)
    last_trigger = policy.trigger_watermark(args.refits - 1)
    if last_trigger > dataset.num_steps:
        raise SystemExit(
            f"{args.refits} refits need {last_trigger} steps but the feed "
            f"has {dataset.num_steps}; shrink --window-steps/--refit-every"
        )
    config = STSMConfig(
        hidden_dim=args.hidden, num_blocks=1, tcn_levels=2, gcn_depth=1,
        epochs=args.refit_epochs, patience=args.refit_epochs, batch_size=8,
        window_stride=8, top_k=min(6, args.sensors - 1), seed=args.seed,
    )
    checkpoint_root = args.checkpoint_root or tempfile.mkdtemp(prefix="stream-ckpt-")
    key = f"stsm/{args.dataset}"

    buffer = StreamBuffer(dataset)
    replayer = FeedReplayer(dataset, buffer, speedup=args.speedup,
                            seed=args.seed, stop_step=last_trigger)
    cache_config = store_config_from_args(args)
    # Cache flags (or env) opt into a persistent, quota-bounded tier;
    # the default stays a private in-memory store for this run.
    store = cache_config.build() if cache_config is not None else ArtifactStore()
    runtime = ServingRuntime()
    bridge = LiveSwapBridge(runtime, key, store=store)
    scheduler = RefitScheduler(buffer, config, split, spec, policy,
                               checkpoint_root, store=store)
    server = client = None
    if args.http:
        from ..serving.transport import ForecastClient, ForecastHTTPServer

        server = ForecastHTTPServer(runtime, worker_label="serve-live")
        server.start()
        server.set_ready()
        client = ForecastClient(server.host, server.port)
        print(f"[serve-live] http://{server.host}:{server.port}")
    try:
        replayer.start()
        usable = window_steps - spec.total
        probe_starts = np.linspace(0, usable, num=min(args.probes, usable + 1),
                                   dtype=int)
        while True:
            record = scheduler.run_once(timeout=60.0)
            if record is None:
                break
            bridge.deploy(scheduler.model, record)
            entry = bridge.deploys[-1]
            if client is not None:
                block = client.forecast(key, [int(s) for s in probe_starts])
            else:
                block = runtime.forecast(key, probe_starts)
            print(f"[serve-live] refit {record.index}: "
                  f"window=[{record.window_start}, {record.window_end}) "
                  f"warm={record.warm_started} "
                  f"lag={entry['refit_lag_seconds']:.3f}s "
                  f"probe_mean={float(block.mean()):.4f}")
        stats = client.stats()["runtime"] if client is not None else runtime.stats()
        print(json.dumps({
            "streaming": stats.get("streaming"),
            "swaps": stats.get("swaps", {}).get("count", 0),
            "totals": {k: stats["totals"][k]
                       for k in ("submitted", "completed", "failed", "rejected")},
        }, indent=2))
        return 0
    finally:
        replayer.stop()
        replayer.join()
        if client is not None:
            client.close()
        if server is not None:
            server.shutdown()
        runtime.shutdown()
        reset_store()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.streaming",
        description="Streaming ingestion, incremental refit, live swap.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_replay(sub)
    _add_serve_live(sub)
    args = parser.parse_args(argv)
    if args.command == "replay":
        return _cmd_replay(args)
    return _cmd_serve_live(args)


if __name__ == "__main__":
    sys.exit(main())
