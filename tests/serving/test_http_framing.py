"""HTTP/1.1 framing on both ends of the wire, over raw sockets.

The server side is driven with hand-written request bytes: pipelining,
arbitrary TCP segmentation, connection close rules and each refusal of
untrustworthy framing.  The client side is driven against canned
servers that drop connections, cut bodies short or send garbage.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.interfaces import FitReport, Forecaster
from repro.serving import InvalidRequest, ServingError, ServingRuntime
from repro.serving.transport import ForecastClient, ForecastHTTPServer, codec


class _Affine(Forecaster):
    """Deterministic toy model: start * 10 + grid."""

    name = "affine"

    def fit(self, dataset, split, spec, train_steps) -> FitReport:
        return FitReport()

    def predict(self, window_starts: np.ndarray) -> np.ndarray:
        starts = np.asarray(window_starts, dtype=int)
        return starts[:, None, None] * 10.0 + np.arange(6.0).reshape(2, 3)[None]


def _expected(start: int) -> np.ndarray:
    return _Affine().predict(np.array([start]))[0]


@pytest.fixture(scope="module")
def server():
    with ServingRuntime() as runtime:
        runtime.register("toy", _Affine())
        with ForecastHTTPServer(runtime, max_body_bytes=4096).start() as served:
            served.set_ready()
            yield served


def _forecast_request(start: int, *, extra: str = "") -> bytes:
    body = codec.encode_request([start])
    head = (
        f"POST /v1/forecast/toy HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: {codec.CONTENT_TYPE}\r\nContent-Length: {len(body)}\r\n"
        f"{extra}\r\n"
    )
    return head.encode("latin-1") + body


def _dial(server, timeout: float = 1.0) -> socket.socket:
    return socket.create_connection(("127.0.0.1", server.port), timeout=timeout)


def _read_reply(reader) -> tuple[int, dict, bytes]:
    """``(status, headers, body)`` of one reply off a buffered reader."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def _read_to_end(sock: socket.socket) -> bytes:
    """Every byte until the server closes the connection."""
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def _without_date(replies: bytes) -> bytes:
    return b"".join(
        line for line in replies.splitlines(keepends=True) if not line.startswith(b"Date: ")
    )


def _assert_served_again(server) -> None:
    with ForecastClient("127.0.0.1", server.port, retries=0, timeout=5.0) as client:
        assert np.array_equal(client.forecast_one("toy", 4), _expected(4))


class TestServerFraming:
    def test_pipelined_requests_answered_in_order(self, server):
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(_forecast_request(1) + _forecast_request(2))
            for start in (1, 2):
                status, headers, body = _read_reply(reader)
                assert status == 200 and "connection" not in headers
                assert np.array_equal(codec.decode_array(body), _expected(start))

    @settings(max_examples=25, deadline=None)
    @given(cuts=st.lists(st.floats(0.0, 1.0), max_size=12))
    def test_any_segmentation_gets_the_same_replies(self, server, cuts):
        stream = (
            _forecast_request(3)
            + b"GET /v1/models HTTP/1.1\r\nHost: test\r\n\r\n"
            + _forecast_request(5, extra="Connection: close\r\n")
        )
        with _dial(server) as sock:
            sock.sendall(stream)
            whole = _read_to_end(sock)
        bounds = sorted({int(cut * len(stream)) for cut in cuts} | {0, len(stream)})
        with _dial(server) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for low, high in zip(bounds, bounds[1:]):
                sock.sendall(stream[low:high])
            split = _read_to_end(sock)
        assert whole.count(b"HTTP/1.1 200 OK\r\n") == 3
        assert _without_date(split) == _without_date(whole)

    def test_connection_close_is_honoured(self, server):
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(_forecast_request(1, extra="Connection: close\r\n"))
            status, headers, _body = _read_reply(reader)
            assert status == 200 and headers["connection"] == "close"
            assert reader.read() == b""

    def test_http10_closes_unless_kept_alive(self, server):
        request = b"GET /v1/models HTTP/1.0\r\n\r\n"
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request)
            assert _read_reply(reader)[1]["connection"] == "close"
            assert reader.read() == b""
        keep = b"GET /v1/models HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(keep + keep)
            for _ in range(2):
                status, headers, _body = _read_reply(reader)
                assert status == 200 and "connection" not in headers

    def test_get_body_is_read_and_dropped(self, server):
        get = b"GET /v1/models HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello"
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(get + _forecast_request(6))
            assert _read_reply(reader)[0] == 200
            status, _headers, body = _read_reply(reader)
            assert status == 200
            assert np.array_equal(codec.decode_array(body), _expected(6))

    def test_expect_continue_answered_before_the_body(self, server):
        request = _forecast_request(7, extra="Expect: 100-continue\r\n")
        head, body = request.split(b"\r\n\r\n", 1)
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(head + b"\r\n\r\n")
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            status, _headers, reply = _read_reply(reader)
            assert status == 200
            assert np.array_equal(codec.decode_array(reply), _expected(7))

    def test_oversized_body_refused_before_continue(self, server):
        head = (b"POST /v1/forecast/toy HTTP/1.1\r\nContent-Length: 5000\r\n"
                b"Expect: 100-continue\r\n\r\n")
        with _dial(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(head)
            status, headers, body = _read_reply(reader)
            assert status == 413 and headers["connection"] == "close"
            with pytest.raises(InvalidRequest, match="exceeds"):
                codec.decode_array(body)


_FORECAST_HEAD = "POST /v1/forecast/toy HTTP/1.1\r\nHost: test\r\n"

_REFUSALS = {
    # id: (request bytes, status)
    "negative-length": ((_FORECAST_HEAD + "Content-Length: -1\r\n\r\n").encode(), 400),
    "non-digit-length": ((_FORECAST_HEAD + "Content-Length: 1e3\r\n\r\n").encode(), 400),
    "superscript-digit-length": ((_FORECAST_HEAD + "Content-Length: \xb2\r\n\r\n").encode("latin-1"), 400),
    "conflicting-lengths": (
        (_FORECAST_HEAD + "Content-Length: 3\r\nContent-Length: 4\r\n\r\nabcd").encode(), 400,
    ),
    "space-before-colon": ((_FORECAST_HEAD + "Content-Length : 3\r\n\r\nabc").encode(), 400),
    "bad-request-line": (b"POST /v1/forecast/toy\r\n\r\n", 400),
    "unknown-version": (b"GET /v1/models HTTP/2.0\r\n\r\n", 400),
    "transfer-encoding": (
        (_FORECAST_HEAD + "Transfer-Encoding: chunked\r\n\r\n0\r\n\r\n").encode(), 501,
    ),
    "unknown-method": (b"DELETE /v1/models HTTP/1.1\r\n\r\n", 501),
    "long-request-line": (b"GET /" + b"a" * 65536 + b" HTTP/1.1\r\n\r\n", 414),
    "too-many-headers": (
        b"GET /v1/models HTTP/1.1\r\n" + b"X-Pad: 1\r\n" * 101 + b"\r\n", 431,
    ),
    "long-header-line": (
        b"GET /v1/models HTTP/1.1\r\nX-Pad: " + b"a" * 65536 + b"\r\n\r\n", 431,
    ),
}


@pytest.mark.parametrize("request_bytes, status", _REFUSALS.values(), ids=_REFUSALS)
def test_bad_framing_is_refused_and_closed(server, request_bytes, status):
    began = time.monotonic()
    with _dial(server) as sock, sock.makefile("rb") as reader:
        sock.sendall(request_bytes)
        got, headers, body = _read_reply(reader)
        assert reader.read() == b""  # the server closed the connection
    assert time.monotonic() - began < 1.0
    assert got == status and headers["connection"] == "close"
    if status == 400:
        with pytest.raises(InvalidRequest):
            codec.decode_array(body)
    else:
        assert headers["content-type"] == "application/json"
    _assert_served_again(server)


class _CannedServer:
    """A listener that answers every request with ``reply``, then closes
    the connection if ``close`` is set; counts accepted connections."""

    def __init__(self, reply: bytes, *, close: bool) -> None:
        self.reply, self.close = reply, close
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as reader:
            while True:
                length = 0
                while (line := reader.readline()) not in (b"\r\n", b""):
                    if line.lower().startswith(b"content-length:"):
                        length = int(line.split(b":")[1])
                if not line:
                    return
                reader.read(length)
                conn.sendall(self.reply)
                if self.close:
                    return

    def __enter__(self) -> "_CannedServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self._listener.close()


def _frame_reply(start: int, extra: bytes = b"") -> bytes:
    body = codec.encode_array(_expected(start))
    return (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n%s\r\n" % (len(body), extra)) + body


class TestClientFraming:
    def test_dropped_idle_connection_costs_one_redial(self):
        with _CannedServer(_frame_reply(2), close=True) as canned, \
                ForecastClient("127.0.0.1", canned.port, retries=0, timeout=5.0) as client:
            assert np.array_equal(client.forecast_one("toy", 2), _expected(2))
            time.sleep(0.05)  # the server has closed the idle socket
            assert np.array_equal(client.forecast_one("toy", 2), _expected(2))
            assert canned.connections == 2

    def test_connection_close_reply_dials_again(self):
        reply = _frame_reply(3, b"Connection: close\r\n")
        with _CannedServer(reply, close=False) as canned, \
                ForecastClient("127.0.0.1", canned.port, retries=0, timeout=5.0) as client:
            client.forecast_one("toy", 3)
            assert client._sock is None
            client.forecast_one("toy", 3)
            assert canned.connections == 2

    @pytest.mark.parametrize("reply", [
        b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nonly ten b",
        b"garbage\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: -5\r\n\r\n",
        b"HTTP/1.1 200 OK\r\n\r\nno length",
    ], ids=["truncated-body", "garbage-status-line", "bad-content-length", "no-content-length"])
    def test_broken_reply_raises_after_the_retries(self, reply):
        began = time.monotonic()
        with _CannedServer(reply, close=True) as canned, \
                ForecastClient("127.0.0.1", canned.port, retries=1, backoff_s=0.01,
                               timeout=5.0) as client:
            with pytest.raises(ServingError, match="after 2 attempts"):
                client.forecast_one("toy", 1)
            # Each attempt dials, and re-dials once on the broken reply.
            assert canned.connections == 4
        assert time.monotonic() - began < 2.0
