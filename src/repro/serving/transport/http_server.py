"""Threaded HTTP/1.1 front door over a :class:`~repro.serving.ServingRuntime`.

Endpoints (bodies on ``POST`` routes are codec frames, see
:mod:`~repro.serving.transport.codec`):

* ``POST /v1/forecast/<model>`` — one window start -> ``(horizon, N_u)``
  array frame.
* ``POST /v1/forecast_many/<model>`` — many starts ->
  ``(k, horizon, N_u)`` array frame.
* ``GET /v1/models`` — JSON: hosted model keys + readiness.
* ``GET /healthz`` — JSON liveness; 503 until the worker is warmed and
  marked ready.
* ``GET /v1/stats`` — JSON: runtime telemetry (per-model p50/p95/p99,
  queue depth, cache hits) + transport counters + worker label.
* ``GET /v1/batch_log/<model>`` — JSON: logged predict-batch
  compositions (parity certification; 404 when the model's service has
  logging off).

Failures on forecast routes come back as structured **error frames**
with the HTTP status from :data:`~repro.serving.transport.codec.ERROR_CODES`
— ``queue_full``/``not_ready`` are 503 (retryable), ``model_not_found``
404, ``invalid_request``/``codec_error`` 400, ``body_too_large`` 413 —
so a wire client raises exactly the exception an in-process caller
would.

Concurrency model: ``http.server.ThreadingHTTPServer`` — one daemon
thread per connection (HTTP/1.1 keep-alive makes that one thread per
*client*), all submitting into the runtime's per-model micro-batch
schedulers, so concurrent wire requests batch with each other exactly
like in-process threads do.  ``reuse_port=True`` sets ``SO_REUSEPORT``
before bind so N independent worker *processes* can share one port with
kernel load balancing (the multi-worker launcher's scale-out path).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote

import numpy as np

from ...obs.metrics import global_registry, render_prometheus
from ...obs.trace import TraceContext, get_recorder, mint_span_id
from ..errors import InvalidRequest, ServingError
from ..runtime import ServingRuntime
from . import codec

__all__ = ["ForecastHTTPServer", "DEFAULT_MAX_BODY_BYTES"]

#: Request bodies above this are refused with a 413 ``body_too_large``
#: frame.  Forecast requests are tiny (a JSON list of ints); anything
#: near this bound is a mistake or an attack.
DEFAULT_MAX_BODY_BYTES = 1 << 20

#: How often the serve loop checks for a shutdown request, and so about
#: how long ``shutdown()`` blocks.  Kept short: new connections wake the
#: loop at once whatever this is, so it costs only idle wake-ups.
_POLL_INTERVAL_S = 0.02


#: Transport counters: ``/v1/stats`` key -> (metric name, help).
_COUNTERS = {
    "requests": ("repro_transport_requests_total", "HTTP responses written"),
    "errors": ("repro_transport_errors_total", "HTTP responses with status >= 400"),
    "bytes_in": ("repro_transport_bytes_in_total", "Request body bytes read"),
    "bytes_out": ("repro_transport_bytes_out_total", "Response body bytes written"),
}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: clients reuse connections
    server_version = "repro-serving/1"
    #: Socket timeout so a dead keep-alive connection releases its thread.
    timeout = 60.0
    # Response headers and frame body are separate writes; with Nagle on
    # the body can sit behind the peer's delayed ACK (~40 ms per request
    # on loopback).  Serving is latency-bound: send segments immediately.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    @property
    def app(self) -> "ForecastHTTPServer":
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # per-request stderr lines would swamp benchmark output

    def _send(self, status: int, content_type: str, body: bytes,
              *, bytes_in: int = 0) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        counters = self.app._counters
        counters["requests"].inc()
        if status >= 400:
            counters["errors"].inc()
        counters["bytes_in"].inc(bytes_in)
        counters["bytes_out"].inc(len(body))

    def _send_json(self, status: int, payload: dict) -> None:
        self._send(status, "application/json", json.dumps(payload).encode("utf-8"))

    def _send_frame(self, status: int, payload: bytes, *, bytes_in: int) -> None:
        """Write one frame response; a failed write (stalled or vanished
        client) must only drop the connection — emitting a second
        response after partial output would corrupt the keep-alive
        stream."""
        try:
            self._send(status, codec.CONTENT_TYPE, payload, bytes_in=bytes_in)
        except OSError:  # BrokenPipe/ConnectionReset/socket timeout
            self.close_connection = True

    # ------------------------------------------------------------------
    # GET routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0]
        app = self.app
        if path == "/healthz":
            ready = app.ready
            self._send_json(200 if ready else 503, {
                "status": "ok" if ready else "starting",
                "ready": ready,
                "worker": app.worker_label,
                "models": app.runtime.models,
            })
        elif path == "/v1/models":
            self._send_json(200, {"models": app.runtime.models, "ready": app.ready})
        elif path == "/v1/stats":
            self._send_json(200, {
                "worker": app.worker_label,
                "ready": app.ready,
                "transport": app.transport_stats(),
                "runtime": app.runtime.stats(),
            })
        elif path == "/metrics":
            body = render_prometheus(
                app.runtime.metrics, global_registry()
            ).encode("utf-8")
            self._send(200, "text/plain; version=0.0.4; charset=utf-8", body)
        elif path == "/v1/traces":
            query = parse_qs(self.path.partition("?")[2])
            trace_id = (query.get("trace") or [None])[0]
            body = get_recorder().to_jsonl(trace_id).encode("utf-8")
            self._send(200, "application/x-ndjson", body)
        elif path.startswith("/v1/batch_log/"):
            self._batch_log(unquote(path[len("/v1/batch_log/"):]))
        else:
            self._send_json(404, {"error": f"unknown path {path!r}"})

    def _batch_log(self, model: str) -> None:
        try:
            service = self.app.runtime.scheduler(model).service
        except ServingError as exc:
            self._send_json(404, {"error": str(exc)})
            return
        if service.batch_log is None:
            self._send_json(404, {"error": f"batch logging is off for {model!r}"})
            return
        batches = [[int(s) for s in batch] for batch in service.batch_log]
        self._send_json(200, {"model": model, "batches": batches})

    # ------------------------------------------------------------------
    # POST routes (frame bodies)
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 — http.server API
        path = self.path.split("?", 1)[0]
        if path.startswith("/v1/forecast_many/"):
            self._forecast(unquote(path[len("/v1/forecast_many/"):]), single=False)
        elif path.startswith("/v1/forecast/"):
            self._forecast(unquote(path[len("/v1/forecast/"):]), single=True)
        else:
            # The unread request body would desync keep-alive parsing.
            self.close_connection = True
            self._send_json(404, {"error": f"unknown path {path!r}"})

    def _read_body(self) -> bytes:
        length = self.headers.get("Content-Length")
        if length is None:
            # Without a length the stream position after this request is
            # unknowable — an error reply must also drop the connection,
            # or the next keep-alive request would parse from stale bytes.
            self.close_connection = True
            raise InvalidRequest("request needs a Content-Length header")
        try:
            length = int(length)
        except ValueError:
            self.close_connection = True
            raise InvalidRequest(f"bad Content-Length {length!r}") from None
        if length > self.app.max_body_bytes:
            # The body is never read; drop the connection after replying
            # rather than parsing a request that might not all arrive.
            self.close_connection = True
            raise _BodyTooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.app.max_body_bytes}-byte limit"
            )
        # Consume the body *before* any content-type validation can
        # raise, so an error reply leaves the connection aligned on the
        # next request boundary (keep-alive stays usable).
        body = self.rfile.read(length)
        content_type = self.headers.get("Content-Type")
        if content_type is not None:
            base = content_type.split(";", 1)[0].strip()
            if base != "application/x-repro-frame":
                raise InvalidRequest(f"unsupported content type {base!r}")
            if content_type.replace(" ", "") != codec.CONTENT_TYPE.replace(" ", ""):
                raise codec.CodecError(
                    f"content-type version mismatch: got {content_type!r}, "
                    f"this server speaks {codec.CONTENT_TYPE!r}"
                )
        return body

    def _forecast(self, model: str, *, single: bool) -> None:
        """Handle one forecast route: compute the full reply first, then
        write it in one place — request handling can fail into an error
        frame, but nothing may raise after response bytes start flowing.
        """
        app = self.app
        body = b""
        try:
            body = self._read_body()
            if not app.ready:
                raise _NotReady(f"worker {app.worker_label} is still warming up")
            starts, wire_trace = codec.decode_request_meta(body)
            if single and len(starts) != 1:
                raise InvalidRequest(
                    f"/v1/forecast takes exactly one window start (got "
                    f"{len(starts)}); use /v1/forecast_many for batches"
                )
            # The server span's id is pre-minted so scheduler/service
            # spans recorded while the request is in flight can already
            # parent under it; the span itself is recorded on the way
            # out, once its duration is known.
            recorder = get_recorder()
            server_ctx = None
            if wire_trace is not None and recorder.enabled:
                server_ctx = TraceContext(
                    wire_trace["id"], mint_span_id()
                )
                server_began = time.monotonic()
            # One intake step before awaiting any handle, so one wire
            # request's windows batch together (and with concurrent
            # requests), and a refused request enqueues nothing.
            handles = app.runtime.submit_many(model, starts, trace=server_ctx)
            blocks = [h.result(app.result_timeout_s) for h in handles]
            values = blocks[0] if single else np.stack(blocks, axis=0)
            status, payload = 200, codec.encode_array(values)
            if server_ctx is not None:
                recorder.record({
                    "trace": server_ctx.trace_id,
                    "span": server_ctx.span_id,
                    "parent": wire_trace["span"],
                    "name": "server.request",
                    "start": server_began,
                    "dur": time.monotonic() - server_began,
                    "wall": time.time(),
                    "attrs": {
                        "model": model,
                        "starts": len(starts),
                        "worker": app.worker_label,
                    },
                })
        except _BodyTooLarge as exc:
            status, payload = 413, codec.encode_error("body_too_large", str(exc))
        except _NotReady as exc:
            status, payload = 503, codec.encode_error("not_ready", str(exc))
        except BaseException as exc:  # noqa: BLE001 — becomes an error frame
            code, status = codec.exception_to_error(exc)
            payload = codec.encode_error(code, str(exc))
        self._send_frame(status, payload, bytes_in=len(body))


class _BodyTooLarge(InvalidRequest):
    """Internal: Content-Length exceeded the server bound (HTTP 413)."""


class _NotReady(ServingError):
    """Internal: forecast arrived before warm-up finished (HTTP 503)."""


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    #: Listen backlog.  socketserver's default of 5 drops SYNs when a
    #: high-fan-in client pool (load generators run 8-96 threads)
    #: connects at once; each dropped SYN costs the client a ~1 s
    #: kernel retransmit that dwarfs every request it then issues.
    request_queue_size = 128

    def __init__(self, address, app: "ForecastHTTPServer", reuse_port: bool) -> None:
        self.app = app
        self._reuse_port = reuse_port
        super().__init__(address, _Handler)

    def server_bind(self) -> None:
        if self._reuse_port:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        super().server_bind()


class ForecastHTTPServer:
    """One bound HTTP server over one runtime.

    ``port=0`` binds an ephemeral port (read it back from :attr:`port`).
    The server starts **not ready**: ``/healthz`` answers 503 and
    forecast routes refuse with retryable ``not_ready`` frames until
    :meth:`set_ready` — the launcher calls it after warm-up so a load
    balancer (or the client's ``wait_ready``) never routes traffic to a
    cold worker.

    Use :meth:`start` for a background daemon thread (tests, in-process
    benchmarks) or :meth:`serve_forever` to block (worker processes).
    """

    def __init__(
        self,
        runtime: ServingRuntime,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        result_timeout_s: float | None = 60.0,
        reuse_port: bool = False,
        worker_label: str = "worker-0",
    ) -> None:
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        self.runtime = runtime
        self.max_body_bytes = max_body_bytes
        self.result_timeout_s = result_timeout_s
        self.worker_label = worker_label
        # The runtime registry's children labelled with this worker, so
        # every listener of one worker (public and control port) counts
        # into one series.
        self._counters = {
            field: runtime.metrics.counter(name, help, ("worker",)).labels(
                worker=worker_label
            )
            for field, (name, help) in _COUNTERS.items()
        }
        self._ready = threading.Event()
        self._server = _Server((host, port), self, reuse_port)
        self._thread: threading.Thread | None = None
        self._started = False
        self._closed = False

    def transport_stats(self) -> dict:
        """This worker's request, error and byte counts (``/v1/stats``)."""
        return {field: int(child.value) for field, child in self._counters.items()}

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def ready(self) -> bool:
        return self._ready.is_set()

    def set_ready(self) -> None:
        self._ready.set()

    # ------------------------------------------------------------------
    def start(self) -> "ForecastHTTPServer":
        """Serve on a background daemon thread; returns self."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            args=(_POLL_INTERVAL_S,),
            name=f"http[{self.worker_label}]",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        if self._started:
            raise RuntimeError("server already started")
        self._started = True
        self._server.serve_forever(_POLL_INTERVAL_S)

    def shutdown(self) -> None:
        """Stop accepting, close the listener.  Idempotent.

        Does *not* shut the runtime down — draining in-flight scheduler
        work is the launcher's job (it owns the runtime lifecycle).
        """
        if self._closed:
            return
        self._closed = True
        if self._started:
            # Only a serve loop that ran (or will run: serve_forever
            # checks the request flag on entry) can acknowledge the
            # shutdown handshake; signalling a never-started server
            # would block forever on its is-shut-down event.
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "ForecastHTTPServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
