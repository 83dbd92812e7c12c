"""Array-backend benchmark: ``numpy_ref`` timings.

Measures the two hot paths the backend seam was built for:

* **forward+backward** — one STSM network training step (forward, loss,
  full backward) at a serving-representative batch shape;
* **fit** — a complete small ``STSMForecaster.fit`` + ``predict``,
  covering the optimiser, the engine loop and the conv/graph kernels.

Run::

    PYTHONPATH=src python benchmarks/bench_backend.py            # full
    PYTHONPATH=src python benchmarks/bench_backend.py --smoke    # CI smoke

Writes ``BENCH_backend.json`` at the repository root (override with
``--output``).  The committed copy records per-backend seconds on the
machine that produced it; there is no speed gate.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.autograd import Tensor  # noqa: E402
from repro.backend import use_backend  # noqa: E402
from repro.core import STSMConfig, STSMForecaster  # noqa: E402
from repro.core.network import STSMNetwork  # noqa: E402
from repro.data import WindowSpec, space_split, temporal_split  # noqa: E402
from repro.data.synthetic import make_pems_bay  # noqa: E402
from repro.nn import mse_loss  # noqa: E402

def _training_step(backend: str, *, batch, steps, nodes, hidden):
    """Build one STSM training step (forward + loss + backward) closure."""
    with use_backend(backend):
        config = STSMConfig(hidden_dim=hidden, num_blocks=2, seed=0)
        network = STSMNetwork(config, horizon=steps, input_length=steps)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(batch, steps, nodes, 1)))
        te = Tensor(rng.normal(size=(batch, steps, 1)))
        adjacency = Tensor(np.abs(rng.normal(size=(nodes, nodes))))
        target = Tensor(rng.normal(size=(batch, steps, nodes, 1)))

    def step():
        with use_backend(backend):
            predictions, graph_repr = network(x, te, adjacency, adjacency)
            loss = mse_loss(predictions, target) + 0.1 * graph_repr.sum()
            network.zero_grad()
            loss.backward()

    return step


def bench_forward_backward(backends, *, batch, steps, nodes, hidden, repeats) -> dict:
    """Best-of-``repeats`` training-step time per backend, interleaved.

    Rounds alternate between the backends so slow drift (thermal /
    noisy-neighbour effects on shared machines) hits both equally
    instead of biasing whichever ran last.
    """
    steps_by_backend = {
        backend: _training_step(backend, batch=batch, steps=steps, nodes=nodes, hidden=hidden)
        for backend in backends
    }
    for step in steps_by_backend.values():  # warm-up: einsum paths, allocator
        step()
    best = {backend: float("inf") for backend in backends}
    for _ in range(repeats):
        for backend, step in steps_by_backend.items():
            began = time.perf_counter()
            step()
            best[backend] = min(best[backend], time.perf_counter() - began)
    return best


def bench_full_fit(backend: str, *, sensors, days, epochs, hidden) -> float:
    """A complete small STSM fit + predict under ``backend``."""
    dataset = make_pems_bay(num_sensors=sensors, num_days=days, seed=7)
    split = space_split(dataset.coords, "horizontal")
    spec = WindowSpec(input_length=8, horizon=8)
    train_ix, _ = temporal_split(dataset.num_steps)
    starts = np.arange(dataset.num_steps - spec.total - 8, dataset.num_steps - spec.total)

    config = STSMConfig(
        epochs=epochs, hidden_dim=hidden, num_blocks=1, top_k=8, seed=0, backend=backend
    )
    model = STSMForecaster(config=config)
    began = time.perf_counter()
    model.fit(dataset, split, spec, train_ix)
    model.predict(starts)
    return time.perf_counter() - began


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes / single repeat (CI wiring check)")
    parser.add_argument("--output", default=None,
                        help="result JSON path (default: <repo>/BENCH_backend.json; "
                             "'-' skips writing)")
    args = parser.parse_args(argv)

    if args.smoke:
        fwd_cases = {"forward_backward": dict(batch=4, steps=8, nodes=16, hidden=16, repeats=2)}
        fit_kwargs = dict(sensors=12, days=1, epochs=1, hidden=8)
    else:
        # The headline case uses a batch-16 serving step; the batch-32
        # training step is reported alongside it — larger batches shift
        # more time into BLAS GEMMs.
        fwd_cases = {
            "forward_backward": dict(batch=16, steps=12, nodes=48, hidden=32, repeats=5),
            "forward_backward_b32": dict(batch=32, steps=12, nodes=48, hidden=32, repeats=5),
        }
        fit_kwargs = dict(sensors=48, days=3, epochs=3, hidden=32)

    backends = ["numpy_ref"]

    results: dict = {
        "mode": "smoke" if args.smoke else "full",
        "backends": backends,
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "shapes": {**fwd_cases, "full_fit": fit_kwargs},
        "seconds": {},
    }

    results["seconds"] = {backend: {} for backend in backends}
    for case, kwargs in fwd_cases.items():
        for backend, seconds in bench_forward_backward(backends, **kwargs).items():
            results["seconds"][backend][case] = seconds
    # Fits alternate backends for the same drift-control reason.
    fit_rounds = 1 if args.smoke else 2
    best_fit = {backend: float("inf") for backend in backends}
    for _ in range(fit_rounds):
        for backend in backends:
            best_fit[backend] = min(best_fit[backend], bench_full_fit(backend, **fit_kwargs))
    for backend in backends:
        results["seconds"][backend]["full_fit"] = best_fit[backend]
    for backend in backends:
        rendered = "   ".join(
            f"{case} {seconds * 1e3:8.1f} ms" if case != "full_fit" else f"full_fit {seconds:6.2f} s"
            for case, seconds in results["seconds"][backend].items()
        )
        print(f"{backend:12s}  {rendered}")

    if args.output != "-":
        output = Path(args.output) if args.output else REPO_ROOT / "BENCH_backend.json"
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"[wrote {output}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
