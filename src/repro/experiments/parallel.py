"""Process-pool sweep executor: ``run_matrix`` across worker processes.

Every paper table and figure funnels through
:func:`~repro.experiments.runners.run_matrix`, which evaluates its
model × split × seed grid strictly serially.  The cells of that grid are
*independent by construction* — each one builds its own model from
``(dataset_key, seed)``, fits it, and evaluates it — so this module
decomposes one ``run_matrix`` call into :class:`SweepCell` units and
dispatches them across N ``spawn``-ed worker processes, then merges the
per-cell results back into the exact serial output shape.

Determinism is the contract.  A cell computes identical floats no matter
which process runs it (fixed seeds, no cross-cell state), and the merge
re-assembles results in the serial iteration order (model-major, then
split, then seed), so ``average_metrics`` and the timing means see the
same operands in the same order: parallel metrics are bit-identical to
serial ones.  The parity suite in
``tests/experiments/test_parallel_sweep.py`` certifies exactly that.

Worker bootstrap (``spawn``-safe — no fork-inherited locks or RNG
state):

* the parent's :class:`~repro.engine.ArtifactStore` disk tier (if any)
  is re-opened in each worker via ``open_store``, so all workers
  share one ``$REPRO_CACHE_DIR``-style directory: fits persist their DTW
  pairs and masked adjacencies as they finish (segment names are
  unique, so concurrent writers never clobber each other), and every
  cell refreshes its disk index first so workers reuse *each other's*
  artifacts mid-sweep;
* ``REPRO_SWEEP_JOBS`` is pinned to ``1`` inside workers so a cell that
  itself calls ``run_matrix`` can never fork a nested pool.

Scheduling is cost-aware: STSM fits dominate a mixed grid, so cells are
submitted longest-expected-first (:func:`expected_cell_cost`) and the
cheap naive baselines fill the tail instead of straggling behind it.

Failure isolation: a cell that raises is retried once (in case the
failure was environmental — a dying worker, a transient I/O error); a
cell that fails twice is recorded as a structured
:class:`CellFailure`, the *other* cells still run to completion, and the
sweep then surfaces one :class:`SweepCellError` carrying every failure
plus the completed cells' results.  A worker process that dies outright
(``BrokenProcessPool``) is survived the same way: the pool is rebuilt
and the interrupted cells re-run against their retry budget.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from ..obs.metrics import global_registry

__all__ = [
    "JOBS_ENV",
    "CellFailure",
    "SweepCell",
    "SweepCellError",
    "execute_matrix",
    "expected_cell_cost",
    "resolve_jobs",
]

#: Environment variable giving the default worker count for every
#: ``run_matrix`` call that does not pass ``jobs`` explicitly
#: (``python -m repro.experiments --jobs N`` sets it).  ``0`` or a
#: negative value means "all CPU cores".
JOBS_ENV = "REPRO_SWEEP_JOBS"

#: Total tries per cell: the first run plus exactly one retry.
MAX_ATTEMPTS = 2


def resolve_jobs(jobs: int | None) -> int:
    """Resolve a worker count: explicit arg > ``$REPRO_SWEEP_JOBS`` > 1.

    ``0`` or negative (from either source) means all CPU cores.  The
    result is always >= 1; ``1`` selects the serial path.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"{JOBS_ENV} must be an integer, got {raw!r}") from None
    if jobs <= 0:
        return os.cpu_count() or 1
    return int(jobs)


@dataclass(frozen=True)
class SweepCell:
    """One independent (model, split, seed) unit of a ``run_matrix`` grid."""

    index: int  #: position in the serial iteration order (merge key)
    model_name: str
    split_index: int
    seed: int

    @property
    def label(self) -> str:
        return f"{self.model_name}/split{self.split_index}/seed{self.seed}"


@dataclass
class CellFailure:
    """Structured record of a cell that failed after its retry."""

    model_name: str
    split_index: int
    seed: int
    attempts: int
    error_type: str
    message: str
    traceback: str = ""

    def describe(self) -> str:
        return (
            f"{self.model_name}/split{self.split_index}/seed{self.seed}: "
            f"{self.error_type}: {self.message} (after {self.attempts} attempts)"
        )


class SweepCellError(RuntimeError):
    """One or more sweep cells failed (each after a retry).

    Raised only after every other cell ran to completion — a crashing
    cell never kills the sweep.  ``failures`` holds the structured
    :class:`CellFailure` records; ``completed`` maps
    ``(model_name, split_index, seed)`` to the finished cells'
    :class:`~repro.evaluation.EvaluationResult` objects, so partial
    sweep output stays recoverable.
    """

    def __init__(self, failures: list[CellFailure], completed: dict) -> None:
        self.failures = failures
        self.completed = completed
        lines = "; ".join(f.describe() for f in failures)
        super().__init__(
            f"{len(failures)} sweep cell(s) failed ({len(completed)} completed): {lines}"
        )


# ----------------------------------------------------------------------
# Cost-aware scheduling
# ----------------------------------------------------------------------
def expected_cell_cost(model_name: str, scale) -> float:
    """Relative expected wall-clock of one cell (scheduling heuristic only).

    Never affects results — only submission order.  STSM fits dominate a
    mixed grid (full training loop + quadratic DTW adjacency builds), the
    learned baselines scale with their iteration budgets, the classical
    and naive baselines are near-free.
    """
    if model_name.startswith("STSM"):
        epochs = float(scale.stsm.get("epochs", 60))
        return 1e6 + 1e3 * epochs
    if model_name == "GE-GAN":
        return float(scale.gegan.get("iterations", 6000))
    if model_name == "IGNNK":
        return float(scale.ignnk.get("iterations", 1500))
    if model_name == "INCREASE":
        return float(scale.increase.get("iterations", 1500))
    if model_name in ("GP-Kriging", "MatrixCompletion"):
        return 50.0
    return 1.0


# ----------------------------------------------------------------------
# Worker bootstrap (spawn-safe: everything below is importable state)
# ----------------------------------------------------------------------
def _store_spec(store) -> dict | None:
    """Capture the parent's store wiring for worker bootstrap.

    Environment variables travel to ``spawn`` children on their own; this
    covers in-process configuration (``open_store`` calls, e.g. from the
    ``--cache-dir`` CLI flag) that would otherwise be lost.
    """
    if store is None:
        return None
    return {
        "disk_dir": str(store.disk_dir) if store.disk_dir is not None else None,
        # Workers enforce the same quota as the parent so a shared
        # tier stays bounded even mid-sweep (their persist-time gc
        # only evicts segments they have indexed themselves).
        "max_bytes": store.max_bytes,
    }


def _init_worker(store_spec: dict | None) -> None:
    """Per-process initialiser: mirror the parent's store."""
    # A cell must never fork its own pool (nested parallelism would
    # oversubscribe the box and deadlock a 1-CPU runner).
    os.environ[JOBS_ENV] = "1"
    if store_spec is not None:
        from ..engine import StoreConfig, open_store

        open_store(
            StoreConfig(
                disk_dir=store_spec["disk_dir"],
                max_bytes=store_spec.get("max_bytes"),
            )
        )


def _run_cell(payload: dict) -> dict:
    """Evaluate one cell inside a worker; never raises across the boundary.

    Returns ``{"ok": True, "result": EvaluationResult, ...telemetry}`` or
    ``{"ok": False, ...structured error}`` so Python-level failures stay
    per-cell instead of poisoning the pool.
    """
    from ..engine import active_store
    from .runners import evaluate_cell

    try:
        store = active_store(payload["cache_store"])
        if store is not None and store.disk_dir is not None:
            # Pick up segments other workers persisted since our index
            # was built, so concurrent cells reuse each other's DTW
            # pairs and masked adjacencies (cheap: one directory listing
            # plus the headers of segments not indexed yet).
            store.refresh_disk_index()
        began = time.perf_counter()
        result = evaluate_cell(
            dataset=payload["dataset"],
            dataset_key=payload["dataset_key"],
            model_name=payload["model_name"],
            scale=payload["scale"],
            split=payload["split"],
            spec=payload["spec"],
            seed=payload["seed"],
            cache_store=payload["cache_store"],
            stsm_overrides=payload["stsm_overrides"],
        )
        seconds = time.perf_counter() - began
        return {"ok": True, "result": result, "seconds": seconds, "pid": os.getpid()}
    except BaseException as error:  # noqa: BLE001 — the boundary contract
        return {
            "ok": False,
            "error_type": type(error).__name__,
            "message": str(error),
            "traceback": traceback.format_exc(),
        }


# ----------------------------------------------------------------------
# Orchestration
# ----------------------------------------------------------------------
@dataclass
class _CellState:
    cell: SweepCell
    payload: dict
    attempts: int = 0
    rank: int = 0  #: cost-sorted submission position (telemetry)
    failure: CellFailure | None = None
    outcome: dict | None = None


def _execute_cells(
    states: dict[int, _CellState], jobs: int, store_spec: dict | None
) -> None:
    """Run every cell to an outcome or a post-retry failure (in place)."""
    context = multiprocessing.get_context("spawn")
    queue = sorted(states.values(), key=lambda s: s.rank)
    while queue:
        batch, queue = queue, []
        broken = False
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(batch)),
            mp_context=context,
            initializer=_init_worker,
            initargs=(store_spec,),
        ) as pool:
            futures = {}
            for state in batch:
                state.attempts += 1
                futures[pool.submit(_run_cell, state.payload)] = state
            while futures:
                done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
                for future in done:
                    state = futures.pop(future)
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        # The worker running (or queued for) this cell
                        # died; the pool is poisoned.  Re-run what the
                        # budget allows in a fresh pool.
                        broken = True
                        if state.attempts < MAX_ATTEMPTS:
                            queue.append(state)
                        else:
                            state.failure = _pool_death_failure(state)
                        continue
                    except BaseException as error:  # un-picklable result etc.
                        outcome = {
                            "ok": False,
                            "error_type": type(error).__name__,
                            "message": str(error),
                            "traceback": traceback.format_exc(),
                        }
                    if outcome["ok"]:
                        state.outcome = outcome
                    elif state.attempts < MAX_ATTEMPTS:
                        if broken:
                            queue.append(state)
                        else:
                            try:
                                state.attempts += 1
                                futures[pool.submit(_run_cell, state.payload)] = state
                            except BrokenProcessPool:
                                broken = True
                                state.attempts -= 1
                                queue.append(state)
                    else:
                        cell = state.cell
                        state.failure = CellFailure(
                            model_name=cell.model_name,
                            split_index=cell.split_index,
                            seed=cell.seed,
                            attempts=state.attempts,
                            error_type=outcome["error_type"],
                            message=outcome["message"],
                            traceback=outcome["traceback"],
                        )
        queue.sort(key=lambda s: s.rank)


def _pool_death_failure(state: _CellState) -> CellFailure:
    cell = state.cell
    return CellFailure(
        model_name=cell.model_name,
        split_index=cell.split_index,
        seed=cell.seed,
        attempts=state.attempts,
        error_type="BrokenProcessPool",
        message="worker process died while running this cell",
    )


def execute_matrix(
    dataset,
    dataset_key: str,
    model_names: list[str],
    scale,
    splits: list,
    spec,
    seeds: tuple,
    cache_store: bool | None,
    stsm_overrides: dict,
    jobs: int,
    store,
) -> dict[str, dict]:
    """Parallel drop-in for ``run_matrix``'s serial grid loop.

    Returns the exact serial output shape (and bit-identical metrics);
    raises :class:`SweepCellError` if any cell failed after its retry,
    once every other cell has completed.
    """
    from .runners import summarize_results

    store_spec = _store_spec(store)
    states: dict[int, _CellState] = {}
    index = 0
    for model_name in model_names:
        for split_index in range(len(splits)):
            for seed in seeds:
                payload = {
                    "dataset": dataset,
                    "dataset_key": dataset_key,
                    "model_name": model_name,
                    "scale": scale,
                    "split": splits[split_index],
                    "spec": spec,
                    "seed": seed,
                    "cache_store": cache_store,
                    "stsm_overrides": stsm_overrides,
                }
                states[index] = _CellState(
                    cell=SweepCell(index, model_name, split_index, seed),
                    payload=payload,
                )
                index += 1
    # Longest-expected-first submission; serial position breaks ties so
    # the schedule is deterministic.
    by_cost = sorted(
        states.values(),
        key=lambda s: (-expected_cell_cost(s.cell.model_name, scale), s.cell.index),
    )
    for rank, state in enumerate(by_cost):
        state.rank = rank

    _execute_cells(states, jobs, store_spec)

    failures = [s.failure for s in states.values() if s.failure is not None]
    completed = {
        (s.cell.model_name, s.cell.split_index, s.cell.seed): s.outcome["result"]
        for s in states.values()
        if s.outcome is not None
    }
    if store is not None and store.disk_dir is not None:
        # Make the workers' persisted artifacts visible to later fits in
        # this (parent) process without a restart.
        store.refresh_disk_index()
        if store.max_bytes is not None and not store.read_only:
            # Sweep-end collection over the *merged* index: with the
            # whole tier visible, the parent can compact duplicate
            # segments concurrent workers wrote and enforce the shared
            # quota across all of them.
            store.gc()
    if failures:
        failures.sort(key=lambda f: (f.model_name, f.split_index, f.seed))
        raise SweepCellError(failures, completed)

    # Per-cell sweep metrics land in the process-global registry (the
    # sweep runs in the parent; worker timings arrive with the merged
    # outcomes) so a sweep's cost profile is scrapeable alongside
    # serving metrics.
    registry = global_registry()
    cell_hist = registry.histogram(
        "repro_sweep_cell_seconds",
        "Wall-clock seconds per completed sweep cell",
        ("model",),
    )
    cells_total = registry.counter(
        "repro_sweep_cells_total",
        "Sweep cells merged, by outcome",
        ("model", "status"),
    )
    out: dict[str, dict] = {}
    index = 0
    for model_name in model_names:
        results = []
        for split_index in range(len(splits)):
            for seed in seeds:
                state = states[index]
                result = state.outcome["result"]
                result.extra["sweep"] = {
                    "jobs": jobs,
                    "cell_seconds": state.outcome["seconds"],
                    "worker_pid": state.outcome["pid"],
                    "attempts": state.attempts,
                    "schedule_rank": state.rank,
                }
                cell_hist.labels(model=model_name).observe(
                    float(state.outcome["seconds"])
                )
                cells_total.labels(
                    model=model_name,
                    status="retried" if state.attempts > 1 else "ok",
                ).inc()
                results.append(result)
                index += 1
        out[model_name] = summarize_results(results)
    return out
