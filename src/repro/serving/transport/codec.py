"""Wire codec: JSON control frames + raw little-endian array payloads.

Every body on the wire — request, response, or error — is one **frame**:

.. code-block:: text

    offset  size  field
    0       4     magic  b"RPF1"
    4       2     codec version (u16, little-endian; currently 1)
    6       4     header length H (u32, little-endian)
    10      4     payload length P (u32, little-endian)
    14      H     header: UTF-8 JSON object with a "kind" field
    14+H    P     payload: raw bytes (array frames: C-order,
                  little-endian, dtype/shape in the header)

The JSON header carries control data (window starts, dtype, shape,
error codes); bulk numerics ride in the payload untouched, so a decoded
array is **bitwise** the encoder's array — ``np.frombuffer`` on the
payload, no text round-trip, NaN payload bits preserved.  Both length
fields are checked against the actual body, so truncated or padded
frames fail loudly instead of mis-parsing.

Frame kinds:

* ``forecast`` — request: ``{"kind": "forecast", "starts": [ints]}``.
* ``array`` — response: ``{"kind": "array", "dtype": "<f8",
  "shape": [...]}`` + payload bytes.
* ``error`` — structured failure: ``{"kind": "error", "code": ...,
  "message": ...}``; :data:`ERROR_CODES` maps each code to the
  in-process exception class and HTTP status, so transport errors are
  1:1 with :mod:`repro.serving.errors`.

Versioning: the u16 in the prelude is the only version negotiation;
a decoder refuses frames from a different major version.  The HTTP
layer additionally stamps :data:`CONTENT_TYPE` (which embeds the
version) on every frame body.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from ..errors import InvalidRequest, ModelNotFound, QueueFull, ServingError

__all__ = [
    "CODEC_VERSION",
    "CONTENT_TYPE",
    "CodecError",
    "ERROR_CODES",
    "decode_array",
    "decode_error",
    "decode_frame",
    "decode_request_meta",
    "encode_array",
    "encode_error",
    "encode_frame",
    "encode_request",
    "exception_to_error",
]

MAGIC = b"RPF1"
CODEC_VERSION = 1
#: Stamped on every frame body by the HTTP layer; embeds the codec version.
CONTENT_TYPE = f"application/x-repro-frame; version={CODEC_VERSION}"

#: Prelude: magic, version, header length, payload length (little-endian).
_PRELUDE = struct.Struct("<4sHII")

#: The dtype strings :func:`encode_array` emits for numeric arrays: every
#: bool, integer, float and complex type code, little-endian.  A decoder
#: matches the wire string against these before numpy parses it.
WIRE_DTYPES = frozenset(
    np.dtype(code).newbyteorder("<").str
    for code in "?" + np.typecodes["AllInteger"] + np.typecodes["AllFloat"]
)

#: Upper bound on the JSON header alone (the transport separately bounds
#: whole request bodies); a frame claiming more is corrupt or hostile.
MAX_HEADER_BYTES = 1 << 20


class CodecError(InvalidRequest):
    """A wire frame could not be decoded (truncated, mis-versioned, corrupt)."""


# ----------------------------------------------------------------------
# Frame layer
# ----------------------------------------------------------------------
def encode_frame(header: dict, payload: bytes = b"") -> bytes:
    """Serialise one frame from a JSON-able header and raw payload bytes."""
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return _PRELUDE.pack(MAGIC, CODEC_VERSION, len(head), len(payload)) + head + payload


def decode_frame(body: bytes) -> tuple[dict, bytes]:
    """Parse one frame; returns ``(header, payload)``.

    Raises :class:`CodecError` on anything that is not exactly one
    well-formed current-version frame: short prelude, wrong magic,
    version mismatch, length fields disagreeing with the body, or a
    header that is not a JSON object with a ``kind``.
    """
    if len(body) < _PRELUDE.size:
        raise CodecError(
            f"truncated frame: {len(body)} bytes is shorter than the "
            f"{_PRELUDE.size}-byte prelude"
        )
    magic, version, header_len, payload_len = _PRELUDE.unpack_from(body)
    if magic != MAGIC:
        raise CodecError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if version != CODEC_VERSION:
        raise CodecError(
            f"codec version mismatch: frame is v{version}, this codec is "
            f"v{CODEC_VERSION}"
        )
    if header_len > MAX_HEADER_BYTES:
        raise CodecError(f"frame header claims {header_len} bytes (corrupt)")
    expected = _PRELUDE.size + header_len + payload_len
    if len(body) != expected:
        kind = "truncated" if len(body) < expected else "oversized"
        raise CodecError(
            f"{kind} frame: {len(body)} bytes, prelude declares {expected}"
        )
    head = body[_PRELUDE.size : _PRELUDE.size + header_len]
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CodecError(f"frame header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or "kind" not in header:
        raise CodecError("frame header must be a JSON object with a 'kind'")
    return header, body[_PRELUDE.size + header_len :]


# ----------------------------------------------------------------------
# Array frames
# ----------------------------------------------------------------------
def encode_array(values: np.ndarray) -> bytes:
    """Encode an array bitwise: little-endian C-order payload + dtype/shape."""
    values = np.asarray(values)
    dtype = values.dtype.newbyteorder("<")
    payload = np.ascontiguousarray(values, dtype=dtype).tobytes()
    header = {"kind": "array", "dtype": dtype.str, "shape": list(values.shape)}
    return encode_frame(header, payload)


def decode_array(body: bytes) -> np.ndarray:
    """Decode an ``array`` frame back to the bitwise-identical ndarray.

    Only numeric (bool, integer, float, complex) dtypes and non-negative
    integer dims decode; anything else is a :class:`CodecError`.
    """
    header, payload = decode_frame(body)
    if header["kind"] == "error":
        raise decode_error(header)
    if header["kind"] != "array":
        raise CodecError(f"expected an array frame, got kind {header['kind']!r}")
    wire_dtype = header.get("dtype")
    # Matched as a string, never parsed: numpy's dtype parser warns on
    # deprecated aliases and evaluates comma strings.
    if not isinstance(wire_dtype, str) or wire_dtype not in WIRE_DTYPES:
        raise CodecError(f"malformed array header: dtype {wire_dtype!r} is not numeric")
    dtype = np.dtype(wire_dtype)
    try:
        shape = tuple(header["shape"])
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed array header: {exc}") from None
    if not all(type(n) is int and n >= 0 for n in shape):
        raise CodecError(f"array shape {list(shape)} needs non-negative integer dims")
    expected = math.prod(shape) * dtype.itemsize
    if len(payload) != expected:
        raise CodecError(
            f"array payload is {len(payload)} bytes, header shape "
            f"{shape} x {dtype.str} needs {expected}"
        )
    # bytearray copy: frombuffer over immutable bytes would yield a
    # read-only array, and decoded forecasts must behave exactly like
    # direct ``predict`` outputs (which are writable).
    return np.frombuffer(bytearray(payload), dtype=dtype).reshape(shape)


# ----------------------------------------------------------------------
# Forecast requests
# ----------------------------------------------------------------------
def encode_request(window_starts, *, trace: dict | None = None) -> bytes:
    """Encode a forecast request for one or many window starts.

    ``trace`` (optional) is a ``{"id": <hex>, "span": <hex>}`` trace
    context; it rides as an additive header field, so traced and
    untraced requests share the same codec version.
    """
    starts = [int(s) for s in np.asarray(window_starts, dtype=int).ravel()]
    header: dict = {"kind": "forecast", "starts": starts}
    if trace is not None:
        header["trace"] = {
            "id": str(trace["id"]), "span": str(trace["span"])
        }
    return encode_frame(header)


def decode_request_meta(body: bytes) -> tuple[list[int], dict | None]:
    """Decode a ``forecast`` frame with its optional trace context.

    Returns ``(starts, trace)`` where ``trace`` is the header's
    ``{"id": ..., "span": ...}`` dict or ``None``.  A malformed trace
    field is silently dropped — observability must never fail a
    request that would otherwise serve.
    """
    header, _payload = decode_frame(body)
    if header["kind"] != "forecast":
        raise CodecError(f"expected a forecast frame, got kind {header['kind']!r}")
    starts = header.get("starts")
    if not isinstance(starts, list) or not starts:
        raise InvalidRequest("forecast request needs a non-empty 'starts' list")
    if not all(isinstance(s, int) and not isinstance(s, bool) for s in starts):
        raise InvalidRequest("window starts must be integers")
    trace = header.get("trace")
    if (
        not isinstance(trace, dict)
        or not isinstance(trace.get("id"), str)
        or not isinstance(trace.get("span"), str)
        or not trace["id"]
        or not trace["span"]
    ):
        trace = None
    return starts, trace


# ----------------------------------------------------------------------
# Error frames
# ----------------------------------------------------------------------
#: code -> (exception class, HTTP status, retryable).  The transport's
#: contract: raising the class on one side produces the code on the
#: wire; decoding the code re-raises the same class on the other side.
ERROR_CODES: dict[str, tuple[type, int, bool]] = {
    "queue_full": (QueueFull, 503, True),
    "not_ready": (ServingError, 503, True),
    "model_not_found": (ModelNotFound, 404, False),
    "invalid_request": (InvalidRequest, 400, False),
    "codec_error": (CodecError, 400, False),
    "body_too_large": (InvalidRequest, 413, False),
    "internal": (ServingError, 500, False),
}


def retryable_statuses() -> frozenset[int]:
    """HTTP statuses that only ever carry retryable error frames."""
    return frozenset(
        status for _cls, status, retryable in ERROR_CODES.values() if retryable
    )


def exception_to_error(exc: BaseException) -> tuple[str, int]:
    """Map an exception to its ``(code, http_status)`` wire identity.

    The status always comes from :data:`ERROR_CODES`, so reclassifying
    a code there is the single place wire behaviour changes.
    """
    if isinstance(exc, QueueFull):
        code = "queue_full"
    elif isinstance(exc, ModelNotFound):
        code = "model_not_found"
    elif isinstance(exc, CodecError):
        code = "codec_error"
    elif isinstance(exc, InvalidRequest):
        code = "invalid_request"
    else:
        code = "internal"
    return code, ERROR_CODES[code][1]


def encode_error(code: str, message: str) -> bytes:
    """Encode a structured error frame (``code`` must be a known code)."""
    if code not in ERROR_CODES:
        raise ValueError(f"unknown error code {code!r}")
    return encode_frame({"kind": "error", "code": code, "message": message})


def decode_error(header: dict) -> ServingError:
    """Instantiate the in-process exception an ``error`` header names."""
    code = header.get("code")
    message = header.get("message", "")
    cls = ERROR_CODES.get(code, (ServingError,))[0]
    return cls(f"{message} [wire code: {code}]" if code else message)
