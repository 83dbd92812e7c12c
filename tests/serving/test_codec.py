"""Wire codec: bitwise round-trips, malformed-frame rejection, error taxonomy."""

from __future__ import annotations

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serving import InvalidRequest, ModelNotFound, QueueFull, ServingError
from repro.serving.transport import codec
from repro.serving.transport.codec import CodecError


class TestFrameLayer:
    def test_frame_round_trip(self):
        header, payload = codec.decode_frame(
            codec.encode_frame({"kind": "x", "n": 3}, b"\x00\x01\xff")
        )
        assert header == {"kind": "x", "n": 3}
        assert payload == b"\x00\x01\xff"

    def test_empty_payload(self):
        header, payload = codec.decode_frame(codec.encode_frame({"kind": "x"}))
        assert payload == b""

    @pytest.mark.parametrize("cut", [0, 1, 5, 13])
    def test_truncated_prelude(self, cut):
        body = codec.encode_frame({"kind": "x"}, b"abc")
        with pytest.raises(CodecError, match="truncated"):
            codec.decode_frame(body[:cut])

    def test_truncated_body_every_cut(self):
        """Property-style: any strict prefix past the prelude fails loudly."""
        body = codec.encode_frame({"kind": "x", "k": [1, 2]}, b"payload!")
        for cut in range(14, len(body)):
            with pytest.raises(CodecError, match="truncated"):
                codec.decode_frame(body[:cut])

    def test_trailing_garbage_rejected(self):
        body = codec.encode_frame({"kind": "x"}, b"p")
        with pytest.raises(CodecError, match="oversized"):
            codec.decode_frame(body + b"\x00")

    def test_bad_magic(self):
        body = bytearray(codec.encode_frame({"kind": "x"}))
        body[:4] = b"HTTP"
        with pytest.raises(CodecError, match="magic"):
            codec.decode_frame(bytes(body))

    def test_version_mismatch(self):
        good = codec.encode_frame({"kind": "x"})
        bumped = good[:4] + struct.pack("<H", codec.CODEC_VERSION + 1) + good[6:]
        with pytest.raises(CodecError, match="version mismatch"):
            codec.decode_frame(bumped)

    def test_header_not_json(self):
        head = b"not json!!"
        body = struct.pack("<4sHII", codec.MAGIC, codec.CODEC_VERSION,
                           len(head), 0) + head
        with pytest.raises(CodecError, match="not valid JSON"):
            codec.decode_frame(body)

    def test_header_without_kind(self):
        head = json.dumps({"no": "kind"}).encode()
        body = struct.pack("<4sHII", codec.MAGIC, codec.CODEC_VERSION,
                           len(head), 0) + head
        with pytest.raises(CodecError, match="'kind'"):
            codec.decode_frame(body)

    def test_absurd_header_length_rejected(self):
        body = struct.pack("<4sHII", codec.MAGIC, codec.CODEC_VERSION,
                           codec.MAX_HEADER_BYTES + 1, 0)
        with pytest.raises(CodecError, match="corrupt"):
            codec.decode_frame(body)


class TestArrayFrames:
    @pytest.mark.parametrize("dtype", ["<f8", "<f4", "<i8", "<i4", "<u2", "<f2"])
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (2, 3), (3, 4, 5), (0, 4)])
    def test_round_trip_bitwise(self, dtype, shape):
        rng = np.random.default_rng(hash((dtype, shape)) % (2**32))
        raw = rng.integers(0, 256, size=int(np.prod(shape)) * np.dtype(dtype).itemsize,
                           dtype=np.uint8)
        values = np.frombuffer(raw.tobytes(), dtype=dtype).reshape(shape)
        decoded = codec.decode_array(codec.encode_array(values))
        assert decoded.dtype == np.dtype(dtype)
        assert decoded.shape == shape
        # Byte-level equality: NaN payload bits, -0.0, denormals all survive.
        assert decoded.tobytes() == values.tobytes()

    def test_nan_and_inf_payloads(self):
        values = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 1e-310])
        decoded = codec.decode_array(codec.encode_array(values))
        assert decoded.tobytes() == values.tobytes()

    def test_big_endian_input_normalised(self):
        values = np.arange(6, dtype=">f8").reshape(2, 3)
        decoded = codec.decode_array(codec.encode_array(values))
        assert decoded.dtype == np.dtype("<f8")
        assert np.array_equal(decoded, values.astype("<f8"))

    def test_non_contiguous_input(self):
        base = np.arange(24, dtype="<f8").reshape(4, 6)
        view = base[::2, ::3]
        decoded = codec.decode_array(codec.encode_array(view))
        assert np.array_equal(decoded, view)

    def test_payload_length_mismatch(self):
        body = bytearray(codec.encode_array(np.zeros(4)))
        # Shrink the payload but fix up the declared length so the frame
        # layer passes and the array layer has to catch it.
        header, _payload = codec.decode_frame(bytes(body))
        tampered = codec.encode_frame(header, b"\x00" * 7)
        with pytest.raises(CodecError, match="payload is 7 bytes"):
            codec.decode_array(tampered)

    def test_error_frame_surfaces_as_exception(self):
        with pytest.raises(QueueFull):
            codec.decode_array(codec.encode_error("queue_full", "busy"))

    def test_wrong_kind(self):
        with pytest.raises(CodecError, match="expected an array frame"):
            codec.decode_array(codec.encode_request([1]))

    @pytest.mark.parametrize("dtype,shape,match", [
        ("|O", [1], "not numeric"),
        ("<f8", [-1, -1], "non-negative integer dims"),
        ("<f8", [True], "non-negative integer dims"),
        ("<f8", [1.0], "non-negative integer dims"),
        # numpy's comma-string parser raises SyntaxError on this one.
        ("|,1", [1], "malformed array header"),
    ])
    def test_unservable_header_is_codec_error(self, dtype, shape, match):
        body = codec.encode_frame(
            {"kind": "array", "dtype": dtype, "shape": shape}, b"\x00" * 8
        )
        with pytest.raises(CodecError, match=match):
            codec.decode_array(body)

    # A deprecated alias, a comma string, an object, a void and a datetime
    # dtype: each is refused before numpy parses it, so none warns.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dtype", ["a", "<i1,1", "O", "V8", "<M8[s]", 8, None])
    def test_dtype_outside_the_wire_set_is_codec_error(self, dtype):
        body = codec.encode_frame({"kind": "array", "dtype": dtype, "shape": [1]}, b"\x00" * 8)
        with pytest.raises(CodecError, match="is not numeric"):
            codec.decode_array(body)


class TestRequestFrames:
    @pytest.mark.parametrize("starts", [[0], [5, 2, 5], list(range(100)), [-3]])
    def test_round_trip(self, starts):
        assert codec.decode_request_meta(codec.encode_request(starts))[0] == starts

    def test_numpy_starts(self):
        assert codec.decode_request_meta(
            codec.encode_request(np.array([4, 2], dtype=np.int64))
        )[0] == [4, 2]

    def test_empty_rejected(self):
        with pytest.raises(InvalidRequest, match="non-empty"):
            codec.decode_request_meta(codec.encode_frame({"kind": "forecast", "starts": []}))

    def test_missing_starts_rejected(self):
        with pytest.raises(InvalidRequest):
            codec.decode_request_meta(codec.encode_frame({"kind": "forecast"}))

    @pytest.mark.parametrize("starts", [[1.5], ["3"], [True], [None], "12"])
    def test_non_integer_starts_rejected(self, starts):
        body = codec.encode_frame({"kind": "forecast", "starts": starts})
        with pytest.raises(InvalidRequest):
            codec.decode_request_meta(body)


class TestErrorFrames:
    @pytest.mark.parametrize("code,cls,status", [
        ("queue_full", QueueFull, 503),
        ("not_ready", ServingError, 503),
        ("model_not_found", ModelNotFound, 404),
        ("invalid_request", InvalidRequest, 400),
        ("codec_error", CodecError, 400),
        ("body_too_large", InvalidRequest, 413),
        ("internal", ServingError, 500),
    ])
    def test_code_table(self, code, cls, status):
        assert codec.ERROR_CODES[code][0] is cls
        assert codec.ERROR_CODES[code][1] == status
        header, _ = codec.decode_frame(codec.encode_error(code, "boom"))
        exc = codec.decode_error(header)
        assert isinstance(exc, cls)
        assert "boom" in str(exc)

    def test_unknown_code_refused_at_encode(self):
        with pytest.raises(ValueError, match="unknown error code"):
            codec.encode_error("made_up", "x")

    def test_unknown_code_decodes_to_base_class(self):
        exc = codec.decode_error({"kind": "error", "code": "future_code",
                                  "message": "hm"})
        assert type(exc) is ServingError

    @pytest.mark.parametrize("exc,code,status", [
        (QueueFull("q"), "queue_full", 503),
        (ModelNotFound("m"), "model_not_found", 404),
        (CodecError("c"), "codec_error", 400),
        (InvalidRequest("i"), "invalid_request", 400),
        (ServingError("s"), "internal", 500),
        (RuntimeError("r"), "internal", 500),
    ])
    def test_exception_to_error(self, exc, code, status):
        assert codec.exception_to_error(exc) == (code, status)

    def test_retryable_statuses_carry_only_retryable_codes(self):
        retryable = codec.retryable_statuses()
        assert retryable == frozenset({503})
        for code, (_cls, status, is_retryable) in codec.ERROR_CODES.items():
            assert (status in retryable) == is_retryable, code


class TestTaxonomy:
    def test_hierarchy(self):
        assert issubclass(QueueFull, ServingError)
        assert issubclass(ModelNotFound, ServingError)
        assert issubclass(InvalidRequest, ServingError)
        assert issubclass(CodecError, InvalidRequest)
        assert issubclass(ServingError, RuntimeError)

    def test_builtin_compatibility(self):
        """Pre-taxonomy callers caught KeyError / ValueError; keep that."""
        assert issubclass(ModelNotFound, KeyError)
        assert issubclass(InvalidRequest, ValueError)

    def test_model_not_found_renders_plainly(self):
        # KeyError.__str__ would repr-quote the message.
        assert str(ModelNotFound("unknown model key 'x'")) == "unknown model key 'x'"


# ----------------------------------------------------------------------
# Properties: bitwise round-trips and typed failures on corrupted frames
# ----------------------------------------------------------------------
NUMERIC_DTYPES = (
    hnp.boolean_dtypes()
    | hnp.integer_dtypes(endianness="?")
    | hnp.unsigned_integer_dtypes(endianness="?")
    | hnp.floating_dtypes(endianness="?")
    | hnp.complex_number_dtypes(endianness="?")
)


@st.composite
def raw_arrays(draw):
    """Numeric arrays of any shape (0-size included) built from arbitrary
    bytes, so every float bit pattern — NaN payloads too — can appear."""
    dtype = draw(NUMERIC_DTYPES)
    shape = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4))
    size = math.prod(shape) * dtype.itemsize
    raw = draw(st.binary(min_size=size, max_size=size))
    return np.frombuffer(raw, dtype=dtype).reshape(shape)


request_starts = st.lists(
    st.integers(min_value=-(2**63), max_value=2**63 - 1), min_size=1, max_size=6
)


def _decodes_or_serving_error(decode, body: bytes) -> None:
    try:
        decode(body)
    except ServingError:
        pass


def _corruptions(body: bytes, mask: int):
    """Every strict prefix of ``body`` and every single-byte XOR flip."""
    for cut in range(len(body)):
        yield body[:cut]
    for index in range(len(body)):
        flipped = bytearray(body)
        flipped[index] ^= mask
        yield bytes(flipped)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(values=raw_arrays())
    def test_array_round_trip_is_bitwise(self, values):
        decoded = codec.decode_array(codec.encode_array(values))
        assert decoded.dtype == values.dtype.newbyteorder("<")
        assert decoded.shape == values.shape
        # The payload is little-endian: a big-endian input's elements
        # arrive byte-swapped, never re-interpreted.
        swapped = values.dtype.byteorder == ">"
        assert decoded.tobytes() == (values.byteswap() if swapped else values).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(values=raw_arrays(), mask=st.integers(min_value=1, max_value=255))
    # "<f8" -> "<O8": one flipped byte declares an object dtype.
    @example(values=np.zeros(2), mask=ord("f") ^ ord("O"))
    # One flipped byte turns the int8 header's dtype into "|,1".
    @example(values=np.zeros((), dtype=np.int8), mask=69)
    def test_corrupted_array_frame_decodes_or_raises_serving_error(self, values, mask):
        for body in _corruptions(codec.encode_array(values), mask):
            _decodes_or_serving_error(codec.decode_array, body)

    @settings(max_examples=30, deadline=None)
    @given(starts=request_starts, traced=st.booleans(),
           mask=st.integers(min_value=1, max_value=255))
    def test_corrupted_request_frame_decodes_or_raises_serving_error(
        self, starts, traced, mask
    ):
        trace = {"id": "ab" * 8, "span": "cd" * 4} if traced else None
        for body in _corruptions(codec.encode_request(starts, trace=trace), mask):
            _decodes_or_serving_error(codec.decode_request_meta, body)
