"""The wire format, pinned byte by byte.

What these tests hold still:

* **frame layout** — 4-byte big-endian length prefix covering a
  12-byte header (version, type, codec, flags, request id) plus body;
* **payload codec** — ``wire_encode``/``wire_decode`` roundtrips every
  job payload the engine accepts (curve points, signatures, >64-bit
  scalars, bytes, nested tuples) identically under JSON, so both ends
  of the socket agree on meaning, not just on bytes;
* **rejection taxonomy** — oversized frames die on their length prefix
  (the body is never buffered), version/type/flags mismatches raise
  :class:`ProtocolError` with a stable ``kind``, garbage bodies raise
  ``bad_body``.

Everything here is transport-pure: no server, no engine, just streams.
"""

import asyncio
import struct

import pytest

from repro.curve.point import AffinePoint
from repro.dsa import fourq_schnorr
from repro.serve.net.protocol import (
    CODEC_JSON,
    FRAME_GOAWAY,
    FRAME_HELLO,
    FRAME_NAMES,
    FRAME_PONG,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    HEADER_SIZE,
    MAX_WIRE_DEPTH,
    PROTOCOL_VERSION,
    FrameTooLarge,
    ProtocolError,
    SUPPORTED_CODECS,
    WireCodecError,
    codec_id,
    codec_name,
    decode_body,
    encode_body,
    encode_frame,
    read_frame,
    wire_decode,
    wire_encode,
)


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=30))


async def _reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def roundtrip(obj):
    return wire_decode(
        decode_body(encode_body(wire_encode(obj), CODEC_JSON), CODEC_JSON)
    )


class TestWireCodec:
    def test_scalars_survive_json(self):
        # FourQ scalars are ~246-bit: far past every integer type JSON
        # implementations agree on.  The tagged hex form must roundtrip
        # them exactly, including negatives and the 64-bit boundary.
        for value in (0, 1, -1, 2**63 - 1, -(2**63), 2**64 - 1, 2**64,
                      2**246 - 3, -(2**255), 0x5EED << 232):
            assert roundtrip(value) == value

    def test_bytes_and_tuples(self):
        payload = (b"\x00\xff" * 16, (1, (2, b"")), [b"x", 7])
        out = roundtrip(payload)
        assert out == payload
        assert isinstance(out, tuple) and isinstance(out[1], tuple)
        assert isinstance(out[2], list)

    def test_curve_point_roundtrips(self):
        g = AffinePoint.generator()
        out = roundtrip(g)
        assert (out.x, out.y) == (g.x, g.y)

    def test_schnorr_signature_roundtrips(self):
        kp = fourq_schnorr.generate_keypair()
        sig = fourq_schnorr.sign(kp, b"wire-codec")
        out = roundtrip((kp.public, b"wire-codec", sig))
        public, message, sig2 = out
        assert fourq_schnorr.verify(public, message, sig2)

    def test_dh_payload_shape(self):
        # The exact payload `repro serve-net` clients send for DH jobs.
        assert roundtrip((123456789, b"\xff" * 32)) == (123456789, b"\xff" * 32)

    def test_unencodable_rejected(self):
        with pytest.raises(WireCodecError):
            wire_encode(object())
        with pytest.raises(WireCodecError):
            wire_encode({1: "non-string key"})
        with pytest.raises(WireCodecError):
            wire_encode({"__wire__": "spoofed tag"})

    def test_malformed_tags_rejected(self):
        for bad in ({"__wire__": "nope"},
                    {"__wire__": "int"},
                    {"__wire__": "bytes", "hex": "zz"},
                    {"__wire__": "point", "x": [1], "y": [2, 3]}):
            with pytest.raises(WireCodecError):
                wire_decode(bad)

    def test_nesting_depth_is_bounded(self):
        """Deeper than MAX_WIRE_DEPTH is a codec error, not a
        RecursionError; tagged objects count toward the depth too."""
        ok = 1
        for _ in range(MAX_WIRE_DEPTH):
            ok = [ok]
        assert wire_decode(ok) == ok
        for wrap in (lambda v: [v], lambda v: {"k": v},
                     lambda v: {"__wire__": "tuple", "items": [v]}):
            deep = 1
            for _ in range(600):
                deep = wrap(deep)
            with pytest.raises(WireCodecError, match="nests deeper"):
                wire_decode(deep)

    def test_codec_names(self):
        assert "json" in SUPPORTED_CODECS
        assert codec_name(codec_id("json")) == "json"
        with pytest.raises(ProtocolError):
            codec_id("carrier-pigeon")


class TestFrameLayout:
    def test_header_bytes_pinned(self):
        data = encode_frame(FRAME_REQUEST, 0xDEADBEEF, {"kind": "sm"})
        (length,) = struct.unpack(">I", data[:4])
        assert length == len(data) - 4
        version, ftype, codec, flags, request_id = struct.unpack(
            ">BBBBQ", data[4:4 + HEADER_SIZE]
        )
        assert (version, ftype, codec, flags) == (
            PROTOCOL_VERSION, FRAME_REQUEST, CODEC_JSON, 0
        )
        assert request_id == 0xDEADBEEF

    def test_roundtrip_through_a_stream(self):
        async def body():
            body_obj = {"kind": "sm",
                        "payload": wire_encode((5, AffinePoint.generator()))}
            reader = await _reader_for(
                encode_frame(FRAME_REQUEST, 7, body_obj)
            )
            frame = await read_frame(reader, max_frame=1 << 20)
            assert frame.type == FRAME_REQUEST
            assert frame.type_name == FRAME_NAMES[FRAME_REQUEST]
            assert frame.request_id == 7
            k, point = wire_decode(frame.body["payload"])
            assert k == 5 and point == AffinePoint.generator()

        run(body())

    def test_every_frame_type_roundtrips(self):
        async def body():
            blob = b"".join(
                encode_frame(ftype, i, {"t": i})
                for i, ftype in enumerate(sorted(FRAME_NAMES))
            )
            reader = await _reader_for(blob)
            for i, ftype in enumerate(sorted(FRAME_NAMES)):
                frame = await read_frame(reader, max_frame=1 << 20)
                assert (frame.type, frame.request_id) == (ftype, i)
                assert frame.body == {"t": i}

        run(body())

    def test_oversized_frame_rejected_from_its_prefix(self):
        # The length prefix alone condemns the frame: read_frame must
        # raise before consuming (or even receiving) the body.
        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(struct.pack(">I", 1 << 24))  # body never sent
            with pytest.raises(FrameTooLarge):
                await read_frame(reader, max_frame=1 << 16)

        run(body())

    def test_encode_refuses_oversized(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(FRAME_RESPONSE, 1, {"blob": "x" * 4096},
                         max_frame=256)

    def test_version_mismatch_rejected(self):
        async def body():
            data = bytearray(encode_frame(FRAME_HELLO, 0, {}))
            data[4] = 99  # future protocol version
            with pytest.raises(ProtocolError) as exc:
                await read_frame(await _reader_for(bytes(data)),
                                 max_frame=1 << 20)
            assert exc.value.kind == "bad_version"

        run(body())

    def test_unknown_type_and_flags_rejected(self):
        async def body():
            data = bytearray(encode_frame(FRAME_PONG, 0, {}))
            data[5] = 200  # no such frame type
            with pytest.raises(ProtocolError) as exc:
                await read_frame(await _reader_for(bytes(data)),
                                 max_frame=1 << 20)
            assert exc.value.kind == "bad_type"

            data = bytearray(encode_frame(FRAME_PONG, 0, {}))
            data[7] = 0xFF  # reserved flags must be zero in v1
            with pytest.raises(ProtocolError) as exc:
                await read_frame(await _reader_for(bytes(data)),
                                 max_frame=1 << 20)
            assert exc.value.kind == "bad_flags"

        run(body())

    def test_short_frame_rejected(self):
        async def body():
            # Length says 4 bytes: not even room for the header.
            blob = struct.pack(">I", 4) + b"\x00" * 4
            with pytest.raises(ProtocolError) as exc:
                await read_frame(await _reader_for(blob), max_frame=1 << 20)
            assert exc.value.kind == "short_frame"

        run(body())

    def test_garbage_body_rejected(self):
        async def body():
            good = encode_frame(FRAME_GOAWAY, 0, {"reason": "x"})
            garbage = good[:4 + HEADER_SIZE] + b"\xfe" * (
                len(good) - 4 - HEADER_SIZE
            )
            with pytest.raises(ProtocolError) as exc:
                await read_frame(await _reader_for(garbage),
                                 max_frame=1 << 20)
            assert exc.value.kind == "bad_body"

        run(body())

    def test_truncated_stream_raises_incomplete(self):
        async def body():
            data = encode_frame(FRAME_REQUEST, 1, {"kind": "sm"})
            reader = await _reader_for(data[: len(data) // 2])
            with pytest.raises(asyncio.IncompleteReadError):
                await read_frame(reader, max_frame=1 << 20)

        run(body())

    def test_request_id_range_enforced(self):
        with pytest.raises(ValueError):
            encode_frame(FRAME_REQUEST, -1, {})
        with pytest.raises(ValueError):
            encode_frame(FRAME_REQUEST, 1 << 64, {})

    def test_bad_codec_byte_rejected(self):
        async def body():
            data = bytearray(encode_frame(FRAME_PONG, 0, {}))
            data[6] = 42  # no such codec
            with pytest.raises(ProtocolError) as exc:
                await read_frame(await _reader_for(bytes(data)),
                                 max_frame=1 << 20)
            assert exc.value.kind == "bad_codec"

        run(body())
