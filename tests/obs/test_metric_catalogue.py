"""The metric catalogue in DESIGN.md §15 is the ``/metrics`` contract.

A scrape of a runtime with an attached store, a streaming bridge and an
HTTP server must render exactly the table's ``runtime`` and ``store``
rows, with the table's types and label keys; and every metric name
that appears in the source tree must have a row.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from repro.engine import ArtifactStore
from repro.interfaces import FitReport, Forecaster
from repro.obs.metrics import MetricsRegistry
from repro.serving import ServingRuntime
from repro.serving.transport import ForecastClient, ForecastHTTPServer, http_server
from repro.streaming import LiveSwapBridge
from repro.streaming.refit import RefitRecord

ROOT = Path(__file__).resolve().parents[2]
_ROW = re.compile(r"^\| `(repro_\w+)` \| (\w+) \| ([^|]+) \| ([^|]+) \|$")


def _catalogue() -> dict[str, tuple[str, frozenset, str]]:
    """DESIGN.md's catalogue rows: name -> (type, label keys, source)."""
    rows = {}
    for line in (ROOT / "DESIGN.md").read_text().splitlines():
        match = _ROW.match(line.strip())
        if match:
            name, kind, labels, source = match.groups()
            keys = frozenset(re.findall(r"`(\w+)`", labels))
            rows[name] = (kind, keys, source.strip())
    return rows


def _scraped(text: str) -> dict[str, tuple[str, frozenset]]:
    """name -> (type, label keys) for every family in an exposition."""
    kinds = {}
    labels: dict[str, set] = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split()
            kinds[name] = kind
        elif line and not line.startswith("#"):
            series = line.rsplit(" ", 1)[0]
            name, _, body = series.partition("{")
            keys = set(re.findall(r'(\w+)="', body)) - {"le"}
            family = next(
                (f for f in (name, re.sub(r"_(bucket|sum|count)$", "", name))
                 if f in kinds),
                name,
            )
            labels.setdefault(family, set()).update(keys)
    return {name: (kind, frozenset(labels.get(name, ()))) for name, kind in kinds.items()}


class _Affine(Forecaster):
    name = "affine"
    state_digest = b"catalogue-affine-v1"

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        starts = np.asarray(window_starts, dtype=float)
        return starts[:, None, None] + np.zeros((1, 2, 3))


def _record(index: int) -> RefitRecord:
    return RefitRecord(
        index=index, window_start=0, window_end=8, fit_seconds=0.0,
        warm_started=index > 0, epochs=1, best_val_rmse=0.0,
        checkpoint_dir="", data_ready_monotonic=0.0, fitted_monotonic=0.0,
    )


def test_table_rows_are_well_formed():
    rows = _catalogue()
    assert len(rows) >= 40
    for name, (kind, _keys, source) in rows.items():
        assert kind in ("counter", "gauge", "histogram", "untyped"), name
        assert source.split(":")[0] in ("runtime", "store", "process"), name


def test_scrape_renders_exactly_the_runtime_and_store_rows(tmp_path, monkeypatch):
    # The process registry holds whatever earlier tests left in it; the
    # runtime-scope contract is checked against an empty one.
    monkeypatch.setattr(http_server, "global_registry", MetricsRegistry)
    store = ArtifactStore(disk_dir=tmp_path / "cache", max_bytes=1 << 20)
    store.put("dtw_pair", b"k", np.arange(3.0))
    with ServingRuntime() as runtime:
        runtime.attach_store(store)
        bridge = LiveSwapBridge(runtime, "toy", store=store)
        bridge.deploy(_Affine(), _record(0))
        with ForecastHTTPServer(runtime).start() as server:
            server.set_ready()
            with ForecastClient("127.0.0.1", server.port) as client:
                client.forecast("toy", [1, 2, 2])
                bridge.deploy(_Affine(), _record(1))
                client.forecast("toy", [1, 3])
                text = client.metrics_text()
    expected = {
        name: (kind, keys)
        for name, (kind, keys, source) in _catalogue().items()
        if not source.startswith("process")
    }
    assert _scraped(text) == expected


def test_every_metric_name_in_the_source_has_a_row():
    literals = {
        name
        for path in (ROOT / "src" / "repro").rglob("*.py")
        for name in re.findall(r"\"(repro_[a-z0-9_]+)\"", path.read_text())
    }
    assert literals == set(_catalogue())
