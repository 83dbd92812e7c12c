"""Thread-safe metrics registry: counters, gauges, bucketed histograms.

One registry gathers every subsystem's telemetry under Prometheus-style
metric names so a single ``GET /metrics`` scrape (or one ``stats()``
read) sees the whole system.  Two publication styles coexist:

* **Instruments** — :class:`Counter` / :class:`Gauge` /
  :class:`Histogram` families created through the registry.  Hot paths
  mutate them directly; each family fans out into per-label-set
  children (``family.labels(model="stsm/pems-bay").inc()``).  Every
  serving, transport and streaming count is one of these: the owner's
  ``stats()`` reads the same children ``/metrics`` renders.
* **Collectors** — callables registered with
  :meth:`MetricsRegistry.register_collector` that return samples at
  *scrape time*.  They serve only *computed snapshots* — state the
  owner derives on demand rather than counts it keeps — which today
  means the artifact store's per-namespace and lifecycle stats.  A
  collector reachable from several rendered registries renders once.

Naming scheme (see DESIGN.md §15): every metric is
``repro_<subsystem>_<quantity>[_total|_seconds|_bytes]`` with label
keys drawn from ``model`` / ``namespace`` / ``backend`` / ``op`` /
``status`` / ``worker``.  Collector samples are rendered untyped;
instruments render with ``# HELP`` / ``# TYPE`` headers, histograms
with cumulative ``_bucket{le=...}`` lines plus ``_sum`` and ``_count``.

Histogram percentiles are estimated by linear interpolation inside the
bucket containing the quantile rank (exact ``count``/``sum``/``max``
are tracked alongside, so ``mean`` and ``max`` are exact).  The default
bucket bounds are :data:`LATENCY_BUCKETS` — exponential from 100 µs to
10 s, chosen so serving latencies (sub-millisecond cache hits to
multi-second cold batches) land 2–4 buckets apart and p50/p95/p99 are
resolved to within a bucket's width.

Everything here is stdlib-only and safe under concurrent mutation: one
lock per child instrument, one registry lock for family/collector
bookkeeping.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "global_registry",
    "render_prometheus",
]

#: Histogram bucket upper bounds in **seconds** (exclusive of +inf,
#: which is always appended): exponential 100 µs → 10 s.  Documented in
#: DESIGN.md §15; the scheduler's latency recorder reuses these bounds.
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: One collector sample: ``(metric_name, labels, value)``.
Sample = tuple[str, Mapping[str, object], float]


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labelnames: Sequence[str], labels: Mapping[str, object]) -> tuple:
    if set(labels) != set(labelnames):
        raise ValueError(
            f"labels {sorted(labels)} do not match declared label names "
            f"{sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


def _format_labels(labelnames: Sequence[str], key: tuple) -> str:
    if not labelnames:
        return ""
    body = ",".join(
        f'{name}="{_escape(value)}"' for name, value in zip(labelnames, key)
    )
    return "{" + body + "}"


def _escape(value: str) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Family:
    """Shared machinery: per-label-set children behind one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = str(help)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple, object] = {}

    def labels(self, **labels):
        """The child instrument for one concrete label assignment."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
            return child

    def _make_child(self):
        raise NotImplementedError

    def children(self) -> list[tuple[tuple, object]]:
        """``(label values, child)`` for every child created so far."""
        with self._lock:
            return list(self._children.items())

    # Label-less convenience: family doubles as its sole child.
    def _default(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} declares labels {self.labelnames}; "
                "use .labels(...)"
            )
        return self.labels()


class _CounterChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Counter(_Family):
    """Monotonically increasing count (requests served, ops issued)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class _GaugeChild:
    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Family):
    """Point-in-time value (queue depth, refit lag)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    @property
    def value(self) -> float:
        return self._default().value


class _HistogramChild:
    """Fixed-bucket histogram with exact count/sum/max.

    Percentiles interpolate linearly inside the bucket holding the
    quantile rank; the top (+inf) bucket is clamped to the observed
    maximum so a single outlier cannot report an infinite p99.
    """

    __slots__ = ("_lock", "bounds", "_counts", "count", "sum", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        self._lock = threading.Lock()
        self.bounds = tuple(bounds)
        self._counts = [0] * (len(self.bounds) + 1)  # last = +inf
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        # Bisect by hand: bounds lists are short (17 entries) and this
        # avoids importing bisect into a __slots__-hot path.
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        with self._lock:
            self._counts[lo] += 1
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value

    def snapshot(self) -> tuple[list[int], int, float, float]:
        with self._lock:
            return list(self._counts), self.count, self.sum, self.max

    def percentile(self, q: float) -> float | None:
        """Estimated ``q``-th percentile (``q`` in [0, 100])."""
        counts, count, _total, observed_max = self.snapshot()
        if count == 0:
            return None
        rank = (q / 100.0) * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            lower = self.bounds[index - 1] if index > 0 else 0.0
            upper = (
                self.bounds[index] if index < len(self.bounds) else observed_max
            )
            if upper < lower:  # all-in-+inf corner with tiny max
                upper = lower
            if cumulative + bucket_count >= rank:
                fraction = (rank - cumulative) / bucket_count
                estimate = lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
                # Interpolation can overshoot the data (every sample may
                # sit at the bottom of its bucket); the exact max is a
                # hard ceiling on any quantile.
                return min(estimate, observed_max)
            cumulative += bucket_count
        return observed_max

    def summary(self) -> dict:
        """JSON-able snapshot: exact count/sum/mean/max + estimated quantiles."""
        _counts, count, total, observed_max = self.snapshot()
        if count == 0:
            return {"count": 0, "sum": 0.0, "mean": None, "max": None,
                    "p50": None, "p95": None, "p99": None}
        return {
            "count": count,
            "sum": total,
            "mean": total / count,
            "max": observed_max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class Histogram(_Family):
    """Bucketed distribution (latencies, batch sizes, cell timings)."""

    kind = "histogram"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = (),
                 buckets: Sequence[float] | None = None) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(buckets) if buckets is not None else LATENCY_BUCKETS
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"bucket bounds must be sorted and non-empty: {bounds}")
        self.buckets = bounds

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def percentile(self, q: float) -> float | None:
        return self._default().percentile(q)

    def summary(self) -> dict:
        return self._default().summary()


class MetricsRegistry:
    """Families plus scrape-time collectors behind one lock.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for one name returns the same family (with a ``ValueError`` if the
    kind or label names disagree — two subsystems silently sharing one
    name with different meanings is a bug worth failing on).

    Collectors are keyed by source name with **replace** semantics: a
    re-registered source (a re-opened process store) overwrites its
    predecessor instead of double-reporting.  A collector that raises is
    skipped and its error surfaced in :meth:`as_dict` under ``collector_errors`` — a scrape must never
    fail because one subsystem is mid-teardown.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: dict[str, Callable[[], Iterable[Sample]]] = {}

    # -- instruments ----------------------------------------------------
    def _family(self, cls, name: str, help: str, labelnames: Sequence[str],
                **kwargs) -> _Family:
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = cls(name, help, labelnames, **kwargs)
            elif not isinstance(family, cls) or family.labelnames != tuple(labelnames):
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.labelnames}"
                )
            return family

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._family(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._family(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "", labelnames: Sequence[str] = (),
                  buckets: Sequence[float] | None = None) -> Histogram:
        return self._family(Histogram, name, help, labelnames, buckets=buckets)

    # -- collectors -----------------------------------------------------
    def register_collector(self, source: str,
                           fn: Callable[[], Iterable[Sample]]) -> None:
        """Attach (or replace) a scrape-time sample source."""
        if not source:
            raise ValueError("collector source name must be non-empty")
        with self._lock:
            self._collectors[source] = fn

    def unregister_collector(self, source: str) -> bool:
        with self._lock:
            return self._collectors.pop(source, None) is not None

    def _collect_samples(self, skip: list | None = None) -> tuple[dict, dict]:
        """Run the collectors not equal to one in ``skip``; ``skip``
        gains those run."""
        with self._lock:
            collectors = [(s, fn) for s, fn in self._collectors.items()
                          if fn not in (skip or ())]
        if skip is not None:
            skip.extend(fn for _source, fn in collectors)
        collected: dict[str, list[Sample]] = {}
        errors: dict[str, str] = {}
        for source, fn in collectors:
            try:
                collected[source] = [
                    (_check_name(str(name)), dict(labels or {}), float(value))
                    for name, labels, value in fn()
                ]
            except Exception as error:  # noqa: BLE001 — scrapes must not fail
                errors[source] = f"{type(error).__name__}: {error}"
        return collected, errors

    # -- readout --------------------------------------------------------
    def as_dict(self) -> dict:
        """JSON-able snapshot for the ``metrics`` section of ``stats()``."""
        with self._lock:
            families = list(self._families.values())
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for family in families:
            for key, child in family.children():
                label = _format_labels(family.labelnames, key)
                full = family.name + label
                if isinstance(family, Counter):
                    out["counters"][full] = child.value
                elif isinstance(family, Gauge):
                    out["gauges"][full] = child.value
                else:
                    out["histograms"][full] = child.summary()
        collected, errors = self._collect_samples()
        out["collected"] = {
            source: {
                name + _format_labels(sorted(labels), tuple(
                    str(labels[k]) for k in sorted(labels))): value
                for name, labels, value in samples
            }
            for source, samples in collected.items()
        }
        if errors:
            out["collector_errors"] = errors
        return out


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Prometheus text exposition (version 0.0.4) over one or more registries.

    Instruments render with HELP/TYPE headers; histogram families emit
    cumulative ``_bucket`` lines (``le`` in seconds, ``+Inf`` last),
    ``_sum`` and ``_count``.  Collector samples render untyped, grouped
    by metric name.  A collector registered on several of the rendered
    registries (one store published both process-wide and on a runtime)
    renders once, from the first registry holding it.
    """
    lines: list[str] = []
    seen_untyped: dict[str, list[str]] = {}
    rendered_collectors: list = []
    for registry in registries:
        with registry._lock:
            families = list(registry._families.values())
        for family in families:
            items = family.children()
            if not items:
                continue
            if family.help:
                lines.append(f"# HELP {family.name} {_escape(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, child in items:
                label = _format_labels(family.labelnames, key)
                if isinstance(family, (Counter, Gauge)):
                    lines.append(f"{family.name}{label} {_render_value(child.value)}")
                else:
                    counts, count, total, _maximum = child.snapshot()
                    cumulative = 0
                    for bound, bucket_count in zip(family.buckets, counts):
                        cumulative += bucket_count
                        le = _format_labels(
                            family.labelnames + ("le",), key + (repr(float(bound)),)
                        )
                        lines.append(f"{family.name}_bucket{le} {cumulative}")
                    cumulative += counts[-1]
                    le = _format_labels(family.labelnames + ("le",), key + ("+Inf",))
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                    lines.append(f"{family.name}_sum{label} {_render_value(total)}")
                    lines.append(f"{family.name}_count{label} {count}")
        collected, _errors = registry._collect_samples(rendered_collectors)
        for samples in collected.values():
            for name, labels, value in samples:
                label = _format_labels(
                    tuple(sorted(labels)),
                    tuple(str(labels[k]) for k in sorted(labels)),
                )
                seen_untyped.setdefault(name, []).append(
                    f"{name}{label} {_render_value(value)}"
                )
    for name in sorted(seen_untyped):
        lines.append(f"# TYPE {name} untyped")
        lines.extend(seen_untyped[name])
    return "\n".join(lines) + ("\n" if lines else "")


def _render_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


# ----------------------------------------------------------------------
# Process-wide registry (training/profiling/sweep metrics that are not
# owned by any one runtime; the HTTP server scrapes it alongside the
# runtime's own registry).
# ----------------------------------------------------------------------
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide registry (trainer, backend ops, sweep cells)."""
    return _GLOBAL
