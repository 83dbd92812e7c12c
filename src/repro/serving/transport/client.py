"""Blocking wire client for the forecast HTTP transport.

:class:`ForecastClient` speaks the frame codec over one persistent
socket (HTTP/1.1 keep-alive, so a client pays the TCP handshake once,
not per request).  HTTP is framed by hand: each request leaves in one
``sendall``; a reply's status line and ``Content-Length`` are parsed
from a buffered reader and exactly that many body bytes are read.  A
reply that says ``Connection: close`` drops the socket, so the next
call dials again.  Failure handling mirrors the serving taxonomy:

* 503 frames (``queue_full``, ``not_ready``) are **retried** with
  linear backoff up to ``retries`` times, then raised as the mapped
  exception (:class:`~repro.serving.errors.QueueFull` /
  :class:`~repro.serving.errors.ServingError`);
* 4xx frames raise immediately
  (:class:`~repro.serving.errors.ModelNotFound`,
  :class:`~repro.serving.errors.InvalidRequest`, ...);
* a dropped keep-alive connection is re-dialed once per request —
  stale-connection races are indistinguishable from a server restart,
  and both are safe to retry because forecasts are idempotent;
* a reply that breaks HTTP framing (a garbage status line, a body cut
  short) counts as a lost connection: it is re-dialed and retried, then
  raised as :class:`~repro.serving.errors.ServingError`.

One instance owns one connection and is **not** thread-safe; give each
thread its own client.
"""

from __future__ import annotations

import json
import socket
import time
from urllib.parse import quote

import numpy as np

from ...obs.trace import get_recorder, mint_span_id, mint_trace_id
from ..errors import ServingError
from . import codec

__all__ = ["ForecastClient"]

#: Statuses carrying retryable error frames (admission shed / warm-up),
#: derived from the codec's single source of truth.
_RETRYABLE_STATUSES = codec.retryable_statuses()

#: Bounds on a reply's status line and header lines (bytes), and on its
#: header count, past which the reply is treated as garbage.
_MAX_LINE = 65536
_MAX_HEADERS = 100


class _BadReply(ConnectionError):
    """The reply broke HTTP framing; the connection cannot be reused."""


class ForecastClient:
    """Blocking client for one serving endpoint.

    Parameters
    ----------
    host, port:
        The serving address (the multi-worker launcher's shared port).
    timeout:
        Per-request socket timeout in seconds.
    retries:
        How many times to retry a retryable failure (503 frames and
        re-dials after connection loss) before raising.
    backoff_s:
        Sleep between retry attempts, growing linearly (``backoff_s *
        attempt``) so a draining queue gets room to clear.
    trace:
        ``True`` mints a trace id per forecast call and sends it in the
        wire frame's control header; ``False`` never traces; ``None``
        (default) follows the process trace recorder's enabled flag
        (``REPRO_OBS=1``).  The id of the most recent traced call is
        kept on :attr:`last_trace_id` for correlation against the
        server's ``GET /v1/traces`` export.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.05,
        trace: bool | None = None,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.trace = trace
        #: Trace id of the most recent traced forecast call (or None).
        self.last_trace_id: str | None = None
        self._sock: socket.socket | None = None
        self._reader = None

    def _mint_trace(self) -> dict | None:
        """Wire trace header for one forecast call, or ``None``."""
        enabled = (
            get_recorder().enabled if self.trace is None else self.trace
        )
        if not enabled:
            return None
        self.last_trace_id = mint_trace_id()
        return {"id": self.last_trace_id, "span": mint_span_id()}

    # ------------------------------------------------------------------
    # Connection plumbing
    # ------------------------------------------------------------------
    def _connect(self) -> socket.socket:
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), self.timeout)
            # Latency-bound request/response: send each request at once
            # rather than waiting out the server's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock, self._reader = sock, sock.makefile("rb")
        return self._sock

    def close(self) -> None:
        """Drop the persistent connection (re-dialed on next use)."""
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None

    def __enter__(self) -> "ForecastClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _roundtrip(self, method: str, path: str, body: bytes | None,
                   content_type: str | None) -> tuple[int, bytes]:
        """One request/response over the kept-alive connection.

        A connection that died between requests (server restart, idle
        reaper) surfaces as a send/recv error on a *previously working*
        socket; re-dial once before counting it as a retryable failure.
        """
        head = f"{method} {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
        if content_type is not None:
            head += f"Content-Type: {content_type}\r\n"
        if body is not None:
            head += f"Content-Length: {len(body)}\r\n"
        request = (head + "\r\n").encode("latin-1") + (body or b"")
        for attempt in (0, 1):
            try:
                self._connect().sendall(request)
                return self._read_reply()
            except OSError:
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _read_reply(self) -> tuple[int, bytes]:
        """Parse one reply off the reader: ``(status, body)``."""
        reader = self._reader
        line = reader.readline(_MAX_LINE + 1)
        if not line:
            raise ConnectionError("connection closed before a reply")
        words = line.split(None, 2)
        if (len(line) > _MAX_LINE or len(words) < 2
                or words[0] not in (b"HTTP/1.1", b"HTTP/1.0")
                or len(words[1]) != 3 or not words[1].isdigit()):
            raise _BadReply(f"bad status line {line[:80]!r}")
        close = words[0] == b"HTTP/1.0"
        length = None
        for _ in range(_MAX_HEADERS + 1):
            line = reader.readline(_MAX_LINE + 1)
            if line in (b"\r\n", b"\n"):
                break
            if not line or len(line) > _MAX_LINE:
                raise _BadReply("reply headers cut short or too long")
            name, _, value = line.partition(b":")
            name, value = name.strip().lower(), value.strip()
            if name == b"content-length":
                if not value.isdigit() or len(value) > 18:
                    raise _BadReply(f"bad Content-Length {value[:40]!r}")
                length = int(value)
            elif name == b"connection":
                close = value.lower() == b"close"
        else:
            raise _BadReply(f"more than {_MAX_HEADERS} reply headers")
        if length is None:
            raise _BadReply("reply has no Content-Length")
        payload = reader.read(length)
        if len(payload) < length:
            raise _BadReply(f"reply body ended after {len(payload)} of {length} bytes")
        if close:
            self.close()
        return int(words[1]), payload

    def _request(self, method: str, path: str, body: bytes | None = None,
                 content_type: str | None = None) -> tuple[int, bytes]:
        """Round-trip with the retry policy applied."""
        last_error: BaseException | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff_s * attempt)
            try:
                status, payload = self._roundtrip(method, path, body, content_type)
            except OSError as exc:
                last_error = exc
                continue
            if status in _RETRYABLE_STATUSES and attempt < self.retries:
                last_error = None
                continue
            return status, payload
        if last_error is not None:
            raise ServingError(
                f"could not reach {self.host}:{self.port} after "
                f"{self.retries + 1} attempts: {last_error}"
            ) from last_error
        return status, payload  # the final retryable response

    def _record_client_span(
        self, trace: dict, model: str, starts: int, start_monotonic: float
    ) -> None:
        """The root ``client.request`` span, ids matching the wire header.

        Recorded directly (not via ``record_span``) because the span id
        must be the one already sent on the wire, so the server's
        ``server.request`` span nests under it.
        """
        get_recorder().record({
            "trace": trace["id"],
            "span": trace["span"],
            "parent": None,
            "name": "client.request",
            "start": start_monotonic,
            "dur": time.monotonic() - start_monotonic,
            "wall": time.time(),
            "attrs": {"model": model, "starts": starts},
        })

    # ------------------------------------------------------------------
    # Forecast API
    # ------------------------------------------------------------------
    def forecast_one(self, model: str, start: int) -> np.ndarray:
        """One window start -> its ``(horizon, N_u)`` forecast block."""
        trace = self._mint_trace()
        began = time.monotonic()
        status, payload = self._request(
            "POST",
            f"/v1/forecast/{quote(str(model), safe='/')}",
            body=codec.encode_request([start], trace=trace),
            content_type=codec.CONTENT_TYPE,
        )
        del status  # error frames carry their own identity
        result = codec.decode_array(payload)
        if trace is not None:
            self._record_client_span(trace, model, 1, began)
        return result

    def forecast(self, model: str, window_starts) -> np.ndarray:
        """Many window starts -> stacked ``(k, horizon, N_u)`` forecasts."""
        trace = self._mint_trace()
        began = time.monotonic()
        body = codec.encode_request(window_starts, trace=trace)
        status, payload = self._request(
            "POST",
            f"/v1/forecast_many/{quote(str(model), safe='/')}",
            body=body,
            content_type=codec.CONTENT_TYPE,
        )
        del status
        result = codec.decode_array(payload)
        if trace is not None:
            self._record_client_span(
                trace, model, int(np.asarray(window_starts).size), began
            )
        return result

    # ------------------------------------------------------------------
    # Introspection API
    # ------------------------------------------------------------------
    def _get_json(self, path: str, *, retry: bool = True) -> tuple[int, dict]:
        if retry:
            status, payload = self._request("GET", path)
        else:
            status, payload = self._roundtrip("GET", path, None, None)
        try:
            return status, json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServingError(
                f"non-JSON response from {path} (status {status})"
            ) from exc

    def models(self) -> list[str]:
        """Hosted model keys."""
        status, payload = self._get_json("/v1/models")
        if status != 200:
            raise ServingError(f"/v1/models failed with status {status}: {payload}")
        return list(payload["models"])

    def stats(self) -> dict:
        """Worker telemetry: transport counters + runtime stats."""
        status, payload = self._get_json("/v1/stats")
        if status != 200:
            raise ServingError(f"/v1/stats failed with status {status}: {payload}")
        return payload

    def metrics_text(self) -> str:
        """The worker's Prometheus exposition (``GET /metrics``)."""
        status, payload = self._request("GET", "/metrics")
        if status != 200:
            raise ServingError(f"/metrics failed with status {status}")
        return payload.decode("utf-8")

    def traces(self, trace_id: str | None = None) -> list[dict]:
        """Span records from the worker's ``GET /v1/traces`` JSONL export."""
        path = "/v1/traces" + (f"?trace={quote(trace_id)}" if trace_id else "")
        status, payload = self._request("GET", path)
        if status != 200:
            raise ServingError(f"/v1/traces failed with status {status}")
        return [
            json.loads(line)
            for line in payload.decode("utf-8").splitlines()
            if line.strip()
        ]

    def batch_log(self, model: str) -> list[np.ndarray]:
        """Logged predict-batch compositions (parity certification)."""
        status, payload = self._get_json(
            f"/v1/batch_log/{quote(str(model), safe='/')}"
        )
        if status != 200:
            raise ServingError(
                f"/v1/batch_log failed with status {status}: {payload}"
            )
        return [np.asarray(batch, dtype=int) for batch in payload["batches"]]

    def health(self) -> dict:
        """One liveness probe (no retries): the raw ``/healthz`` payload.

        Unreachable servers raise ``ConnectionError``/``OSError`` —
        callers polling for startup catch those (see :meth:`wait_ready`).
        """
        _status, payload = self._get_json("/healthz", retry=False)
        return payload

    def wait_ready(self, timeout: float = 30.0) -> bool:
        """Poll ``/healthz`` until the worker reports ready (or timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                if self.health().get("ready"):
                    return True
            except (OSError, ServingError):
                self.close()
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.05)
