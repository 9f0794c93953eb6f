"""The wire protocol: framing, negotiation, and the payload codec.

One frame on the wire is::

    uint32 BE   length of everything after these four bytes
    uint8       protocol version  (PROTOCOL_VERSION)
    uint8       frame type        (HELLO, REQUEST, RESPONSE, ...)
    uint8       codec id          (CODEC_JSON / CODEC_MSGPACK)
    uint8       flags             (reserved, must be zero)
    uint64 BE   request id        (client-assigned, echoed by the server)
    bytes       body              (codec-encoded object)

The length prefix is read first and checked against the receiver's
``max_frame`` bound *before* the body is read, so an oversized frame
costs four bytes of parsing, never a buffer.  The fixed header is
:data:`HEADER_SIZE` bytes; an undersized length is a protocol error.

Frame types
-----------

* ``HELLO`` / ``HELLO_OK`` — version + codec negotiation.  The HELLO
  pair is always JSON-encoded (codec negotiation cannot depend on its
  own outcome); every later frame uses the negotiated codec.
* ``REQUEST`` — ``{"kind", "payload", "deadline_ms"}``; the payload is
  :func:`wire_encode`-tagged so curve points, signatures, byte strings,
  and >64-bit integers survive both codecs.
* ``RESPONSE`` — exactly one per request id, carrying the typed
  outcome: ``{"status": "ok", "value": ...}``,
  ``{"status": "failed", "kind", "message", ...}`` (the
  :class:`~repro.serve.faults.Failed` taxonomy over the wire), or
  ``{"status": "overloaded", "message"}`` for admission rejections.
* ``GOAWAY`` — graceful-shutdown notice: the sender stops issuing (or
  accepting) new requests; already-accepted requests still resolve.
* ``ERROR`` — a connection-level protocol violation; the sender closes
  the connection immediately after writing it.
* ``PING`` / ``PONG`` — liveness probe, echoed with the request id.

Payload codec
-------------

:func:`wire_encode` maps the serving payload vocabulary onto
JSON/msgpack-safe structures with ``{"__wire__": <tag>}`` envelopes:
``bytes`` (hex), ``tuple`` (element list), integers wider than 64 bits
(hex — msgpack cannot carry them natively, and tagging both codecs
identically keeps one canonical wire form), :class:`AffinePoint`
(coordinate pairs), and :class:`SchnorrSignature`.  Plain ints, floats,
strings, bools, ``None``, lists, and string-keyed dicts pass through.
:func:`wire_decode` inverts the mapping exactly (tuples come back as
tuples), so a payload round-trips ``==``-equal.  It refuses lists and
dicts nested deeper than :data:`MAX_WIRE_DEPTH` with
:class:`WireCodecError`.

msgpack is optional: :data:`SUPPORTED_CODECS` only advertises it when
the module imports, and negotiation falls back to JSON, which every
endpoint must support.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from ...curve.point import AffinePoint
from ...dsa.fourq_schnorr import SchnorrSignature

__all__ = [
    "PROTOCOL_VERSION",
    "HEADER_SIZE",
    "DEFAULT_MAX_FRAME",
    "CODEC_JSON",
    "CODEC_MSGPACK",
    "SUPPORTED_CODECS",
    "FRAME_HELLO",
    "FRAME_HELLO_OK",
    "FRAME_REQUEST",
    "FRAME_RESPONSE",
    "FRAME_GOAWAY",
    "FRAME_ERROR",
    "FRAME_PING",
    "FRAME_PONG",
    "FRAME_NAMES",
    "Frame",
    "ProtocolError",
    "FrameTooLarge",
    "WireCodecError",
    "ConnectionLostError",
    "encode_frame",
    "read_frame",
    "wire_encode",
    "wire_decode",
    "MAX_WIRE_DEPTH",
    "encode_body",
    "decode_body",
]

#: The one protocol version this implementation speaks.  A HELLO that
#: offers no common version is answered with an ERROR frame and a
#: closed connection — never a silent downgrade.
PROTOCOL_VERSION = 1

#: Fixed bytes after the length prefix: version, type, codec, flags,
#: and the 8-byte request id.
HEADER_SIZE = 12

#: Default per-frame size bound (length-prefix value), both directions.
DEFAULT_MAX_FRAME = 1 << 20

#: Deepest list/dict nesting :func:`wire_decode` accepts.  Served
#: payloads nest at most six deep; the bound keeps a hostile body from
#: exhausting the interpreter stack.
MAX_WIRE_DEPTH = 32

_LENGTH = struct.Struct(">I")
_HEADER = struct.Struct(">BBBBQ")

# -- frame types -------------------------------------------------------
FRAME_HELLO = 1
FRAME_HELLO_OK = 2
FRAME_REQUEST = 3
FRAME_RESPONSE = 4
FRAME_GOAWAY = 5
FRAME_ERROR = 6
FRAME_PING = 7
FRAME_PONG = 8

FRAME_NAMES = {
    FRAME_HELLO: "hello",
    FRAME_HELLO_OK: "hello_ok",
    FRAME_REQUEST: "request",
    FRAME_RESPONSE: "response",
    FRAME_GOAWAY: "goaway",
    FRAME_ERROR: "error",
    FRAME_PING: "ping",
    FRAME_PONG: "pong",
}

# -- codecs ------------------------------------------------------------
CODEC_JSON = 0
CODEC_MSGPACK = 1

_CODEC_IDS = {"json": CODEC_JSON, "msgpack": CODEC_MSGPACK}
_CODEC_NAMES = {v: k for k, v in _CODEC_IDS.items()}

try:  # msgpack is an optional accelerator, never a requirement
    import msgpack as _msgpack
except ImportError:  # pragma: no cover - exercised where msgpack exists
    _msgpack = None

#: Codec names this endpoint can speak, preference-ordered.  JSON is
#: mandatory (the negotiation bootstrap); msgpack joins when installed.
SUPPORTED_CODECS: Tuple[str, ...] = (
    ("msgpack", "json") if _msgpack is not None else ("json",)
)


class ProtocolError(ValueError):
    """A malformed or out-of-contract frame; the connection must close.

    ``kind`` is a stable machine-readable slug (``bad_magic``,
    ``bad_version``, ``bad_type``, ``bad_codec``, ``bad_body``,
    ``bad_flags``, ``frame_too_large``, ``short_frame``,
    ``handshake``) carried in ERROR frames and the
    ``repro_net_protocol_errors_total`` counter.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


class FrameTooLarge(ProtocolError):
    """The length prefix exceeds the receiver's ``max_frame`` bound."""

    def __init__(self, length: int, max_frame: int):
        super().__init__(
            "frame_too_large",
            f"frame of {length} bytes exceeds the {max_frame}-byte bound",
        )
        self.length = length


class WireCodecError(ValueError):
    """A payload failed to encode or decode (unknown type or tag)."""


class ConnectionLostError(ConnectionError):
    """The TCP peer vanished while responses were still outstanding."""


# -- payload codec -------------------------------------------------------

_WIRE_KEY = "__wire__"

#: Integers outside this range are hex-tagged: msgpack cannot represent
#: them natively, and tagging under every codec keeps the wire form
#: canonical (a JSON request and a msgpack request encode the same
#: structure).
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 64) - 1


def wire_encode(obj: Any) -> Any:
    """Map a serving payload onto a codec-safe (JSON-able) structure."""
    if obj is None or isinstance(obj, (bool, float, str)):
        return obj
    if isinstance(obj, int):
        if _INT64_MIN <= obj <= _INT64_MAX:
            return obj
        sign = "-" if obj < 0 else ""
        return {_WIRE_KEY: "int", "hex": sign + hex(abs(obj))[2:]}
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return {_WIRE_KEY: "bytes", "hex": bytes(obj).hex()}
    if isinstance(obj, tuple):
        return {_WIRE_KEY: "tuple", "items": [wire_encode(v) for v in obj]}
    if isinstance(obj, list):
        return [wire_encode(v) for v in obj]
    if isinstance(obj, dict):
        if any(not isinstance(k, str) for k in obj):
            raise WireCodecError("dict payloads must have string keys")
        if _WIRE_KEY in obj:
            raise WireCodecError(f"dict payloads must not use the {_WIRE_KEY!r} key")
        return {k: wire_encode(v) for k, v in obj.items()}
    if isinstance(obj, AffinePoint):
        return {
            _WIRE_KEY: "point",
            "x": [wire_encode(c) for c in obj.x],
            "y": [wire_encode(c) for c in obj.y],
        }
    if isinstance(obj, SchnorrSignature):
        return {
            _WIRE_KEY: "schnorr_sig",
            "commit_x": [wire_encode(c) for c in obj.commit_x],
            "commit_y": [wire_encode(c) for c in obj.commit_y],
            "s": wire_encode(obj.s),
        }
    raise WireCodecError(f"cannot encode {type(obj).__name__} for the wire")


def _decode_int(value: Any, depth: int) -> int:
    v = _decode(value, depth)
    if not isinstance(v, int) or isinstance(v, bool):
        raise WireCodecError("expected an integer field")
    return v


def wire_decode(obj: Any) -> Any:
    """Invert :func:`wire_encode` exactly (tagged types come back typed)."""
    return _decode(obj, 0)


def _decode(obj: Any, depth: int) -> Any:
    if isinstance(obj, (list, dict)):
        if depth >= MAX_WIRE_DEPTH:
            raise WireCodecError(f"payload nests deeper than {MAX_WIRE_DEPTH} levels")
        depth += 1
    if isinstance(obj, list):
        return [_decode(v, depth) for v in obj]
    if not isinstance(obj, dict):
        return obj
    tag = obj.get(_WIRE_KEY)
    if tag is None:
        return {k: _decode(v, depth) for k, v in obj.items()}
    try:
        if tag == "int":
            raw = obj["hex"]
            if raw.startswith("-"):
                return -int(raw[1:], 16)
            return int(raw, 16)
        if tag == "bytes":
            return bytes.fromhex(obj["hex"])
        if tag == "tuple":
            return tuple(_decode(v, depth) for v in obj["items"])
        if tag == "point":
            x = tuple(_decode_int(c, depth) for c in obj["x"])
            y = tuple(_decode_int(c, depth) for c in obj["y"])
            if len(x) != 2 or len(y) != 2:
                raise WireCodecError("point coordinates must be F_{p^2} pairs")
            # check=False: validity is the receiver's business (the
            # engine rejects off-curve material per item), transport
            # must not raise mid-decode and take the connection down.
            return AffinePoint(x, y, check=False)
        if tag == "schnorr_sig":
            return SchnorrSignature(
                commit_x=tuple(_decode_int(c, depth) for c in obj["commit_x"]),
                commit_y=tuple(_decode_int(c, depth) for c in obj["commit_y"]),
                s=_decode_int(obj["s"], depth),
            )
    except WireCodecError:
        raise
    except (KeyError, TypeError, AttributeError) as exc:
        raise WireCodecError(f"malformed {tag!r} wire object: {exc}") from exc
    except ValueError as exc:
        raise WireCodecError(f"malformed {tag!r} wire object: {exc}") from exc
    raise WireCodecError(f"unknown wire tag {tag!r}")


def encode_body(obj: Any, codec: int) -> bytes:
    """Serialize a frame body under ``codec`` (already wire-encoded)."""
    if codec == CODEC_JSON:
        return json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if codec == CODEC_MSGPACK:
        if _msgpack is None:
            raise ProtocolError("bad_codec", "msgpack codec not available")
        return _msgpack.packb(obj, use_bin_type=True)
    raise ProtocolError("bad_codec", f"unknown codec id {codec}")


def decode_body(data: bytes, codec: int) -> Any:
    """Deserialize a frame body; raises :class:`ProtocolError` on garbage."""
    try:
        if codec == CODEC_JSON:
            return json.loads(data.decode("utf-8"))
        if codec == CODEC_MSGPACK:
            if _msgpack is None:
                raise ProtocolError("bad_codec", "msgpack codec not available")
            return _msgpack.unpackb(data, raw=False)
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError("bad_body", f"undecodable frame body: {exc}") from exc
    raise ProtocolError("bad_codec", f"unknown codec id {codec}")


def codec_id(name: str) -> int:
    """The wire id of a codec name (raises on unknown names)."""
    try:
        return _CODEC_IDS[name]
    except KeyError:
        raise ProtocolError("bad_codec", f"unknown codec {name!r}") from None


def codec_name(ident: int) -> str:
    """The codec name of a wire id (raises on unknown ids)."""
    try:
        return _CODEC_NAMES[ident]
    except KeyError:
        raise ProtocolError("bad_codec", f"unknown codec id {ident}") from None


# -- framing -------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """One decoded frame: header fields plus the decoded body object.

    ``wire_size`` is the bytes it took on the wire, length prefix
    included (set by :func:`read_frame`).
    """

    type: int
    request_id: int
    body: Any
    codec: int = CODEC_JSON
    version: int = PROTOCOL_VERSION
    wire_size: int = 0

    @property
    def type_name(self) -> str:
        return FRAME_NAMES.get(self.type, f"type_{self.type}")


def encode_frame(
    frame_type: int,
    request_id: int,
    body: Any,
    codec: int = CODEC_JSON,
    max_frame: int = DEFAULT_MAX_FRAME,
) -> bytes:
    """Serialize one frame (length prefix + header + body).

    Raises :class:`FrameTooLarge` when the encoded frame would exceed
    ``max_frame`` — the sender's own bound, checked before any bytes
    hit the socket, so an over-large response can never wedge the peer.
    """
    if frame_type not in FRAME_NAMES:
        raise ProtocolError("bad_type", f"unknown frame type {frame_type}")
    if not 0 <= request_id < (1 << 64):
        raise ProtocolError("bad_body", f"request id {request_id} out of range")
    payload = encode_body(body, codec)
    length = HEADER_SIZE + len(payload)
    if length > max_frame:
        raise FrameTooLarge(length, max_frame)
    return (
        _LENGTH.pack(length)
        + _HEADER.pack(PROTOCOL_VERSION, frame_type, codec, 0, request_id)
        + payload
    )


async def read_frame(
    reader: asyncio.StreamReader,
    max_frame: int = DEFAULT_MAX_FRAME,
    first_byte_timeout: Optional[float] = None,
    body_timeout: Optional[float] = None,
) -> Frame:
    """Read and decode exactly one frame from ``reader``.

    ``first_byte_timeout`` bounds the wait for the frame to *begin*
    (handshake/slowloris defence: ``None`` means an idle connection may
    sit quietly forever).  ``body_timeout`` bounds the time between the
    length prefix arriving and the full frame arriving — a peer that
    opens a frame and stalls (the classic slowloris drip) is cut off
    instead of pinning the reader task.

    Raises :class:`FrameTooLarge` / :class:`ProtocolError` on bad
    frames, :class:`asyncio.IncompleteReadError` on EOF, and
    :class:`asyncio.TimeoutError` on either timeout.
    """
    if first_byte_timeout is not None:
        prefix = await asyncio.wait_for(
            reader.readexactly(_LENGTH.size), timeout=first_byte_timeout
        )
    else:
        prefix = await reader.readexactly(_LENGTH.size)
    (length,) = _LENGTH.unpack(prefix)
    if length > max_frame:
        raise FrameTooLarge(length, max_frame)
    if length < HEADER_SIZE:
        raise ProtocolError(
            "short_frame", f"frame length {length} below the {HEADER_SIZE}-byte header"
        )
    if body_timeout is not None:
        rest = await asyncio.wait_for(
            reader.readexactly(length), timeout=body_timeout
        )
    else:
        rest = await reader.readexactly(length)
    version, frame_type, codec, flags, request_id = _HEADER.unpack(
        rest[:HEADER_SIZE]
    )
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "bad_version",
            f"peer speaks protocol {version}, this endpoint speaks "
            f"{PROTOCOL_VERSION}",
        )
    if frame_type not in FRAME_NAMES:
        raise ProtocolError("bad_type", f"unknown frame type {frame_type}")
    if flags != 0:
        raise ProtocolError("bad_flags", f"reserved flags set: {flags:#x}")
    body = decode_body(rest[HEADER_SIZE:], codec)
    return Frame(
        type=frame_type,
        request_id=request_id,
        body=body,
        codec=codec,
        version=version,
        wire_size=_LENGTH.size + length,
    )
