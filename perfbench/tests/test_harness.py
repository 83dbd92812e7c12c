"""Tests of the benchmark harness itself (not of the program).

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import loadgen  # noqa: E402
import spans  # noqa: E402


# -- percentile rule -------------------------------------------------------
@pytest.mark.parametrize("count, expected", [
    (10_000, 99.9), (1_000, 99.0), (999, 95.0), (200, 95.0), (199, 80.0),
    (50, 80.0), (49, 50.0), (20, 50.0), (19, None), (3, None),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert loadgen.tail_percentile(count) == expected


def test_p99_is_reported_only_from_a_thousand_samples():
    assert loadgen.tail_percentile(999) < 99.0 <= loadgen.tail_percentile(1000)


# -- self time -------------------------------------------------------------
class _Clock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def clock(monkeypatch):
    fake = _Clock()
    monkeypatch.setattr(spans.time, "monotonic", fake)
    return fake


def test_self_time_subtracts_covered_children(clock):
    tracer = spans.Tracer()
    tracer.enabled = True
    with tracer.span("outer"):
        clock.now += 1.0
        with tracer.span("inner"):
            clock.now += 2.0
        clock.now += 0.5
    assert tracer.inclusive("outer") == pytest.approx(3.5)
    assert tracer.self_time("outer") == pytest.approx(1.5)
    assert tracer.self_time("inner") == pytest.approx(2.0)


def test_nested_module_calls_split_self_time(clock):
    from repro.nn.module import Module

    class Leaf(Module):
        def forward(self, x):
            clock.now += 2.0
            return x

    class Block(Module):
        def __init__(self) -> None:
            super().__init__()
            self.leaf = Leaf()

        def forward(self, x):
            clock.now += 1.0
            x = self.leaf(self.leaf(x))
            return x

    class Net(Module):
        def __init__(self) -> None:
            super().__init__()
            self.block = Block()

        def forward(self, x):
            clock.now += 0.25
            return self.block(x)

    tracer = spans.Tracer()
    original = Module.__dict__["__call__"]
    Module.__call__ = spans._module_call(tracer, original)
    try:
        tracer.enabled = True
        Net()(0)
    finally:
        Module.__call__ = original
    layer = f"{__name__}.fwd"
    # Every module here lives in this file, so all three share one layer
    # name: inclusive time counts only the outermost call, self times add
    # up to the whole.
    assert tracer.calls(layer) == 4
    assert tracer.inclusive(layer) == pytest.approx(5.25)
    assert tracer.self_time(layer) == pytest.approx(5.25)


def test_self_time_with_distinct_nested_layers(clock):
    tracer = spans.Tracer()
    tracer.enabled = True
    with tracer.span("core.network.fwd"):
        clock.now += 0.5
        for _ in range(2):
            with tracer.span("core.tcn.fwd"):
                clock.now += 1.0
                with tracer.span("backend.matmul.fwd"):
                    clock.now += 3.0
    assert tracer.self_time("core.network.fwd") == pytest.approx(0.5)
    assert tracer.self_time("core.tcn.fwd") == pytest.approx(2.0)
    assert tracer.inclusive("core.tcn.fwd") == pytest.approx(8.0)
    assert tracer.self_time("backend.matmul.fwd") == pytest.approx(6.0)


def test_backend_ops_inside_backward_count_as_backward(clock):
    class Backend:
        name = "fake"

        def matmul(self, a, b):
            clock.now += 1.0
            return a * b

    tracer = spans.Tracer()
    tracer.enabled = True
    backend = spans.TimedBackend(Backend(), tracer)
    assert backend.matmul(2, 3) == 6
    with tracer.span(spans.BACKWARD_SPAN):
        backend.matmul(1, 1)
    assert tracer.calls("backend.matmul.fwd") == 1
    assert tracer.calls("backend.matmul.bwd") == 1
    assert backend.name == "fake"


# -- open-loop lateness ----------------------------------------------------
def test_open_loop_times_from_due_and_reports_lateness():
    service = 0.05

    def send(item):
        time.sleep(service)
        return item

    # One connection, three requests due 1 ms apart: the second and
    # third wait for the first, and that wait is in their latency.
    start = time.monotonic() + 0.01
    samples = loadgen.open_loop([send], [0.0, 0.001, 0.002], ["a", "b", "c"], start)
    by_item = {s.item: s for s in samples}
    assert by_item["a"].lateness < service / 2
    assert by_item["b"].lateness >= service - 0.002
    assert by_item["c"].lateness >= 2 * service - 0.003
    for sample in samples:
        assert sample.latency == pytest.approx(sample.lateness + (sample.done - sample.sent))
        assert sample.latency >= service


def test_failed_requests_miss_every_latency_limit():
    def send(item):
        raise RuntimeError("error frame")

    samples = loadgen.open_loop([send], [0.0], ["a"], time.monotonic())
    assert not samples[0].ok
    assert samples[0].latency == float("inf")


# -- smoke -----------------------------------------------------------------
def _run(args, cwd=ROOT, timeout=240):
    began = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )
    return done, time.monotonic() - began


def _contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload, trace", [("fit", 1), ("serve_hot", 0)])
def test_smoke_run_prints_the_contract_line(workload, trace):
    done, seconds = _run(["--workload", workload, "--seed", "3",
                          "--seconds", "0.2", "--trace", str(trace)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    names = _contract()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in names} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert seconds < 120


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, _seconds = _run(["--workload", "fit", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
