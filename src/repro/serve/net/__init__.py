"""Network transport for the serving layer: ``Frontend.submit`` over TCP.

Three modules:

* :mod:`~repro.serve.net.protocol` — the framed wire format (length
  prefix, versioned header, JSON-or-msgpack bodies, tagged payload
  codec for curve points / signatures / big ints) shared by both ends;
* :mod:`~repro.serve.net.server` — :class:`NetServer`, the asyncio
  acceptor that hands each request to the Frontend with its
  connection as the fairness source, pauses reading at a
  per-connection cap, clamps deadlines, and drains with GOAWAY;
* :mod:`~repro.serve.net.client` — :class:`NetClient`, the pipelined
  client library with the same ``submit`` / ``submit_outcome`` API as
  the in-process Frontend.

See docs/protocol.md for the byte-level layout and docs/serving.md for
the operational story.
"""

from .client import NetClient, NetClientClosed
from .protocol import (
    CODEC_JSON,
    CODEC_MSGPACK,
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    SUPPORTED_CODECS,
    ConnectionLostError,
    Frame,
    FrameTooLarge,
    ProtocolError,
    WireCodecError,
    encode_frame,
    read_frame,
    wire_decode,
    wire_encode,
)
from .server import NetServer, NetServerConfig

__all__ = [
    "CODEC_JSON",
    "CODEC_MSGPACK",
    "ConnectionLostError",
    "DEFAULT_MAX_FRAME",
    "Frame",
    "FrameTooLarge",
    "NetClient",
    "NetClientClosed",
    "NetServer",
    "NetServerConfig",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "SUPPORTED_CODECS",
    "WireCodecError",
    "encode_frame",
    "read_frame",
    "wire_decode",
    "wire_encode",
]
