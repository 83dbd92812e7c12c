"""Wire-level serving walkthrough: fit -> bundle -> serve -> query -> drain.

The full production loop on a laptop-sized problem:

1. fit a small STSM on a synthetic city (an unobserved-region model,
   exactly as in the paper's setup);
2. save a **checkpoint bundle** — the directory a server boots from
   with no training (model weights + dataset recipe + split + warm-up
   windows);
3. launch a worker (in-process here, so the example is single-file;
   ``python -m repro.serving serve --checkpoint-dir ... --workers 4``
   is the same thing as processes behind one SO_REUSEPORT port);
4. query it over real HTTP with :class:`ForecastClient` — and check the
   served bytes equal the local model's own ``predict`` bytes;
5. read the telemetry and drain gracefully.

Run::

    PYTHONPATH=src python examples/serve_and_query.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import STSMConfig, STSMForecaster
from repro.data import WindowSpec, space_split, temporal_split
from repro.data.synthetic import make_dataset
from repro.evaluation import forecast_window_starts
from repro.serving import ModelNotFound, ServingRuntime
from repro.serving.transport import (
    BundleEntry,
    ForecastClient,
    ForecastHTTPServer,
    load_bundle,
    save_bundle,
)


def main() -> int:
    # ------------------------------------------------------------------
    # 1. Fit: a tiny STSM for one synthetic city's unobserved region.
    # ------------------------------------------------------------------
    recipe = {"name": "pems-bay", "num_sensors": 16, "num_days": 2, "seed": 7}
    dataset = make_dataset(recipe["name"], num_sensors=recipe["num_sensors"],
                           num_days=recipe["num_days"], seed=recipe["seed"])
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=8, horizon=8)
    train_ix, _ = temporal_split(dataset.num_steps)
    model = STSMForecaster(STSMConfig(
        hidden_dim=8, num_blocks=1, tcn_levels=2, gcn_depth=1, epochs=1,
        patience=1, batch_size=8, window_stride=8, top_k=6, seed=recipe["seed"],
    ))
    print(f"[1/5] fitting STSM on {dataset.name} "
          f"({len(split.observed)} observed -> {len(split.unobserved)} unobserved)")
    model.fit(dataset, split, spec, train_ix)
    starts = forecast_window_starts(dataset, spec, max_windows=16)

    with tempfile.TemporaryDirectory(prefix="repro-serve-example-") as tmp:
        # --------------------------------------------------------------
        # 2. Bundle: everything a cold server needs, in one directory.
        # --------------------------------------------------------------
        bundle_dir = Path(tmp)
        save_bundle(bundle_dir, {
            "stsm/pems-bay": BundleEntry(
                forecaster=model,
                dataset=recipe,
                warmup_starts=[int(s) for s in starts],
            ),
        })
        print(f"[2/5] bundle written: {sorted(p.name for p in bundle_dir.iterdir())}")

        # --------------------------------------------------------------
        # 3. Serve: restore from the bundle and put it on a socket.
        #    (`python -m repro.serving serve` does this per worker
        #    process; in-process keeps the example self-contained.)
        # --------------------------------------------------------------
        restored, warmup = load_bundle(bundle_dir)["stsm/pems-bay"]
        with ServingRuntime(log_batches=True) as runtime:
            runtime.register("stsm/pems-bay", restored)
            with ForecastHTTPServer(runtime).start() as server:
                runtime.warm_up("stsm/pems-bay", np.asarray(warmup))
                server.set_ready()  # readiness gate: only now /healthz is 200
                print(f"[3/5] serving on http://127.0.0.1:{server.port} "
                      f"(warmed {len(warmup)} windows)")

                # ------------------------------------------------------
                # 4. Query over the wire; verify bitwise parity.
                # ------------------------------------------------------
                with ForecastClient("127.0.0.1", server.port) as client:
                    assert client.wait_ready(10.0)
                    one = client.forecast_one("stsm/pems-bay", int(starts[0]))
                    many = client.forecast("stsm/pems-bay",
                                           [int(s) for s in starts[:4]])
                    print(f"[4/5] served shapes: one={one.shape} many={many.shape}")
                    # The wire adds zero drift: served bytes == the bytes
                    # this process's own warmed service holds.
                    local = runtime.forecast(
                        "stsm/pems-bay", np.asarray(starts[:4], dtype=int)
                    )
                    assert np.array_equal(many, local), "wire drifted!"
                    print("      bitwise parity with the local serving path: OK")
                    try:
                        client.forecast_one("stsm/unknown-city", 0)
                    except ModelNotFound as exc:
                        print(f"      structured 404 over the wire: {exc}")

                    # --------------------------------------------------
                    # 5. Telemetry, then graceful drain.
                    # --------------------------------------------------
                    stats = client.stats()
                    totals = stats["runtime"]["totals"]
                    transport = stats["transport"]
                    print(f"[5/5] completed={totals['completed']} "
                          f"cache-hit={totals['cache_hit_pct']:.0f}% "
                          f"bytes_out={transport['bytes_out']}")
            runtime.drain()
    print("      drained and shut down cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
