"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``: in a traced run it replaces public
functions of the program's modules with timing wrappers (see
:func:`install_layers`) and reads the totals back when the run ends.

Every wrapped call is a span on the calling thread.  Spans nest through
a per-thread stack, so a span's **self time** is its duration minus the
durations of the child spans it covers — a ``core.network`` forward's
self time excludes the nested ``core.tcn`` and ``core.gcn`` module calls
and every backend op run inside them.  A span's **inclusive time** is
counted only for the outermost span of its name, so recursive layers
(a module of one layer nesting another of the same layer) are not
counted twice.

The backend layer is timed by a proxy registered in place of the
``numpy_ref`` backend; an op that runs inside ``Tensor.backward`` is
recorded as ``backend.<op>.bwd``, any other as ``backend.<op>.fwd``.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time

__all__ = ["Tracer", "TimedBackend", "install_layers"]

#: Span names of the autograd backward pass; backend ops inside it are
#: backward ops.
BACKWARD_SPAN = "autograd.backward"


class Tracer:
    """Per-thread span stacks folded into per-name totals."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}

    # -- recording ---------------------------------------------------------
    def _state(self):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.active = {}
        return stack, local.active

    def in_span(self, name: str) -> bool:
        """Whether a span of ``name`` is open on the calling thread."""
        _stack, active = self._state()
        return active.get(name, 0) > 0

    def push(self, name: str) -> list:
        stack, active = self._state()
        frame = [name, time.monotonic(), 0.0]
        stack.append(frame)
        active[name] = active.get(name, 0) + 1
        return frame

    def pop(self, frame: list) -> float:
        """Close ``frame``; returns its duration in seconds."""
        ended = time.monotonic()
        stack, active = self._state()
        stack.pop()
        name, began, children = frame
        duration = ended - began
        active[name] -= 1
        outermost = active[name] == 0
        if stack:
            stack[-1][2] += duration
        with self._lock:
            entry = self.totals.get(name)
            if entry is None:
                entry = self.totals[name] = [0, 0.0, 0.0]
            entry[0] += 1
            if outermost:
                entry[1] += duration
            entry[2] += duration - children
        return duration

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record time measured elsewhere (another thread or process)."""
        with self._lock:
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += seconds
            entry[2] += seconds

    def merge(self, totals: dict) -> None:
        """Fold another tracer's totals (e.g. a worker process's) in."""
        with self._lock:
            for name, (calls, inclusive, self_s) in totals.items():
                entry = self.totals.setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += inclusive
                entry[2] += self_s

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form, for code the benchmark runs itself."""
        frame = self.push(name)
        try:
            yield
        finally:
            self.pop(frame)

    # -- patching ----------------------------------------------------------
    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.push(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop(frame)

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a traced wrapper named ``name``."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    # -- readout -----------------------------------------------------------
    def inclusive(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[1] if entry else 0.0

    def self_time(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry[2] if entry else 0.0

    def calls(self, name: str) -> int:
        entry = self.totals.get(name)
        return entry[0] if entry else 0

    def snapshot(self) -> dict:
        with self._lock:
            return {name: list(entry) for name, entry in self.totals.items()}


class TimedBackend:
    """Attribute-forwarding backend proxy that times every op call.

    Results pass through untouched, so timing can never change a
    computed byte.  ``configured()`` results are re-wrapped, as the
    program's own op-counting proxy does.
    """

    def __init__(self, backend, tracer: Tracer) -> None:
        self._pb_backend = backend
        self._pb_tracer = tracer
        self._pb_wrappers: dict = {}

    def __getattr__(self, name: str):
        value = getattr(self._pb_backend, name)
        if not callable(value):
            return value
        wrapper = self._pb_wrappers.get(name)
        if wrapper is None:
            wrapper = self._make_wrapper(name, value)
            self._pb_wrappers[name] = wrapper
        return wrapper

    def _make_wrapper(self, name: str, fn):
        tracer = self._pb_tracer
        if name == "configured":
            def configured(*args, **kwargs):
                return TimedBackend(fn(*args, **kwargs), tracer)
            return configured
        fwd, bwd = f"backend.{name}.fwd", f"backend.{name}.bwd"

        def timed(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            frame = tracer.push(bwd if tracer.in_span(BACKWARD_SPAN) else fwd)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.pop(frame)

        return timed

    def __repr__(self) -> str:
        return f"TimedBackend({self._pb_backend!r})"


def _module_call(tracer: Tracer, original):
    """``Module.__call__`` replacement: one span per module forward,
    named after the module's defining file (``core.tcn``, ``nn.layers``)."""
    names: dict[type, str] = {}

    def __call__(self, *args, **kwargs):
        if not tracer.enabled:
            return original(self, *args, **kwargs)
        cls = type(self)
        name = names.get(cls)
        if name is None:
            module = cls.__module__
            module = module[len("repro."):] if module.startswith("repro.") else module
            name = names[cls] = f"{module}.fwd"
        frame = tracer.push(name)
        try:
            return original(self, *args, **kwargs)
        finally:
            tracer.pop(frame)

    return __call__


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the benchmark names.

    Called once per traced process, before any workload code runs.  The
    backend proxy is registered under the default backend's name, so
    every later backend lookup resolves to it.
    """
    from repro import backend as backend_pkg
    from repro.autograd import Tensor
    from repro.backend.numpy_ref import NumpyRefBackend
    from repro.core import model as core_model
    from repro.core.model import STSMForecaster
    from repro.engine import Trainer
    from repro.engine import cache as engine_cache
    from repro.engine import trainer as engine_trainer
    from repro.nn.module import Module
    from repro.optim import optimizers
    from repro.serving.scheduler import MicroBatchScheduler
    from repro.serving.transport import client as transport_client
    from repro.serving.transport import codec
    from repro.serving.transport import http_server

    backend_pkg.register_backend(
        "numpy_ref", lambda: TimedBackend(NumpyRefBackend(), tracer)
    )
    backend_pkg.set_backend("numpy_ref")

    patch = tracer.patch
    # core.model: the user-facing operations (the fit workload's roots).
    patch(STSMForecaster, "fit", "core.model.fit")
    patch(STSMForecaster, "predict", "core.model.predict")
    # temporal, core.pseudo, nn: names model.py imported from them.
    patch(core_model, "build_dtw_adjacency", "temporal.build_dtw_adjacency")
    patch(core_model, "fill_pseudo_observations", "core.pseudo.fill")
    patch(core_model, "mse_loss", "nn.loss.fwd")
    patch(core_model, "nt_xent_loss", "nn.loss.fwd")
    _patch_dtw_batch(tracer, engine_cache)
    # engine: the trainer loop and its per-epoch phases.
    patch(Trainer, "fit", "engine.trainer.fit")
    original_init = Trainer.__dict__["__init__"]

    def trainer_init(self, program, *args, **kwargs):
        for hook, name in (
            ("on_epoch_start", "engine.trainer.epoch_start"),
            ("run_epoch", "engine.trainer.run_epoch"),
            ("validation_score", "engine.trainer.validate"),
        ):
            setattr(program, hook, tracer.wrap(getattr(program, hook), name))
        original_init(self, program, *args, **kwargs)

    Trainer.__init__ = trainer_init
    # autograd, optim.
    patch(Tensor, "backward", BACKWARD_SPAN)
    patch(optimizers.Adam, "step", "optim.step")
    patch(engine_trainer, "clip_grad_norm", "optim.clip")
    # Module forwards, named per defining module.
    Module.__call__ = _module_call(tracer, Module.__dict__["__call__"])
    # serving.transport: client request, both codec sides, HTTP handler.
    patch(transport_client.ForecastClient, "forecast", "transport.client_request")
    patch(transport_client.ForecastClient, "forecast_one", "transport.client_request")
    patch(codec, "encode_request", "transport.client_codec")
    patch(codec, "decode_array", "transport.client_codec")
    patch(codec, "decode_request_meta", "transport.server_codec")
    patch(codec, "encode_array", "transport.server_codec")
    patch(http_server._Handler, "do_POST", "transport.http_handle")
    _patch_dispatch(tracer, MicroBatchScheduler)


def _patch_dtw_batch(tracer: Tracer, engine_cache) -> None:
    """Count DTW pairs the pair cache actually computes (its misses)."""
    original = engine_cache._dtw_batch_chunked

    def _dtw_batch_chunked(left, right, pair_i, *args, **kwargs):
        if tracer.enabled:
            tracer.add("temporal.dtw_pairs", 0.0, calls=len(pair_i))
        return original(left, right, pair_i, *args, **kwargs)

    engine_cache._dtw_batch_chunked = _dtw_batch_chunked


def _patch_dispatch(tracer: Tracer, scheduler_cls) -> None:
    """Queue wait and batch size at the scheduler worker's batch pickup.

    The scheduler's public surface ends at ``submit``; its worker picks
    batches up in ``_dispatch``, so that private hook is where a queue
    wait ends.  Each request's wait runs from its enqueue stamp (the
    scheduler's own, on the same monotonic clock) to that pickup.
    """
    original = scheduler_cls._dispatch

    def _dispatch(self, batch):
        if not tracer.enabled:
            return original(self, batch)
        picked = time.monotonic()
        waits = sum(picked - req.enqueued_at for req in batch)
        tracer.add("scheduler.queue_wait", waits, calls=len(batch))
        tracer.add("scheduler.batch", 0.0, calls=1)
        return original(self, batch)

    scheduler_cls._dispatch = _dispatch
