"""The TCP front door: many sockets, one fairly-shared Frontend.

:class:`NetServer` exposes :meth:`Frontend.submit
<repro.serve.frontend.Frontend.submit>` over the framed protocol of
:mod:`repro.serve.net.protocol`.  Design decisions, in the order they
matter under fan-in:

**One queue.**  The server keeps no queue of its own.  Each REQUEST
frame is validated and handed straight to the shared Frontend with the
connection id as its fairness ``source``, so the Frontend's lanes are
the only place requests wait.  A flush takes one request per
connection per rotation: a firehose client that keeps its whole window
on the wire interleaves with a client that sends one request at a
time, and its surplus waits behind its own earlier requests.  The
same holds at a full lane: the Frontend's admission always makes the
heaviest connection wait or lose a request, never a lighter one.

**Two walls under fan-in:**

1. per-connection: ``max_inflight_per_conn`` outstanding requests; at
   the wall the read loop pauses and the client's unread frames wait in
   the kernel socket buffers (TCP backpressure, nothing lost);
2. the Frontend's own ``block`` / ``reject`` / ``shed`` admission
   policy applies to every request exactly as it does in-process — a
   refused or shed request comes back as a typed ``Overloaded`` frame,
   never a dropped connection.

**Deadline propagation.**  A client sends a *relative* budget
(``deadline_ms``); the server clamps it to the Frontend's
``default_deadline_ms`` (a client cannot buy more time than the
operator configured) and submits it with the request.  An expired
request resolves as a typed ``Failed(kind="deadline")`` response frame
— never a silently hung socket.

**Graceful drain.**  :meth:`NetServer.aclose` (and the SIGTERM/SIGINT
handlers :meth:`install_signal_handlers` installs) stops accepting
connections, sends every client a GOAWAY frame, stops reading new
frames, waits for every already-received request to resolve through
the Frontend (bounded by ``drain_timeout_s``; stragglers are withdrawn
from the Frontend and resolve as ``Overloaded`` frames), then closes
the connections and — when the server owns its Frontend — closes the
Frontend itself.

**Abuse containment.**  Oversized frames are rejected from their
four-byte length prefix (the body is never buffered); garbage and
out-of-contract frames produce a typed ERROR frame and a closed
connection; a peer that stalls mid-frame (slowloris) is cut off by
``frame_timeout_s``; a connection that dies mid-request is torn down
and its requests withdrawn from the Frontend, so a client that
reconnects in a loop leaves no work behind (only requests already taken
into a flush complete, and their responses are discarded).  Server-side
work is therefore bounded by the live connections times
``max_inflight_per_conn``.  None of these paths can leave an unresolved
future or take the server down.

Everything observable lands in :mod:`repro.obs` under ``repro_net_*``
(see docs/observability.md), in the registry passed as ``metrics=``.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Set

from ...obs import MetricsRegistry, get_registry
from ..engine import BatchEngine, job_kind
from ..faults import (
    KIND_INTERNAL,
    KIND_OVERLOADED,
    KIND_VALUE,
    Failed,
    Ok,
    Overloaded,
)
from ..frontend import Frontend, FrontendClosed
from .protocol import (
    DEFAULT_MAX_FRAME,
    FRAME_ERROR,
    FRAME_GOAWAY,
    FRAME_HELLO,
    FRAME_HELLO_OK,
    FRAME_NAMES,
    FRAME_PING,
    FRAME_PONG,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    PROTOCOL_VERSION,
    Frame,
    FrameTooLarge,
    ProtocolError,
    SUPPORTED_CODECS,
    WireCodecError,
    codec_id,
    encode_frame,
    read_frame,
    wire_decode,
    wire_encode,
)

__all__ = ["NetServer", "NetServerConfig"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class NetServerConfig:
    """Transport-layer tuning knobs (the Frontend keeps its own).

    Attributes:
        host: bind address.
        port: bind port (0 = ephemeral; read :attr:`NetServer.port`).
        max_frame_bytes: per-frame size bound, both directions; a
            larger length prefix is rejected before the body is read.
        max_inflight_per_conn: outstanding (submitted, not yet
            answered) requests one connection may hold; at the wall the
            read loop pauses, pushing backpressure into the client's
            socket.
        max_connections: concurrent connections; extras are refused
            with a GOAWAY frame at accept time.
        handshake_timeout_s: a new socket must complete HELLO within
            this long or be closed (slowloris defence, phase one).
        frame_timeout_s: once a frame's length prefix arrives, the
            rest must arrive within this long (slowloris, phase two).
        drain_timeout_s: bound on graceful drain; stragglers resolve
            as ``Overloaded`` frames when it expires.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_frame_bytes: int = DEFAULT_MAX_FRAME
    max_inflight_per_conn: int = 32
    max_connections: int = 256
    handshake_timeout_s: float = 5.0
    frame_timeout_s: float = 30.0
    drain_timeout_s: float = 30.0

    def __post_init__(self):
        if self.max_frame_bytes < 64:
            raise ValueError("max_frame_bytes must be >= 64")
        if self.max_inflight_per_conn < 1:
            raise ValueError("max_inflight_per_conn must be >= 1")
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")
        for name in ("handshake_timeout_s", "frame_timeout_s", "drain_timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


class _Conn:
    """Per-connection state: in-flight count, write ordering."""

    __slots__ = (
        "id", "peer", "reader", "writer", "codec", "inflight", "waiting",
        "write_lock", "alive", "space", "idle", "goaway_sent", "task",
    )

    def __init__(self, conn_id: int, peer: str, reader, writer, codec: int):
        self.id = conn_id
        self.peer = peer
        self.reader = reader
        self.writer = writer
        self.codec = codec
        #: Requests submitted to the Frontend and not yet answered.
        self.inflight = 0
        #: Their tasks still awaiting a Frontend outcome; cancelling one
        #: withdraws its request from the Frontend.
        self.waiting: Set[asyncio.Task] = set()
        self.write_lock = asyncio.Lock()
        self.alive = True
        #: Set while outstanding < max_inflight_per_conn (read may resume).
        self.space = asyncio.Event()
        self.space.set()
        #: Set while outstanding == 0 (safe to close after client GOAWAY).
        self.idle = asyncio.Event()
        self.idle.set()
        self.goaway_sent = False
        self.task: Optional[asyncio.Task] = None


class NetServer:
    """Serve a :class:`~repro.serve.frontend.Frontend` over TCP.

    Construct with an existing Frontend (shared ownership: the server
    never closes it) or let the server build one from ``engine`` /
    ``frontend_config`` and own its lifecycle::

        server = NetServer(frontend=my_frontend, port=0)
        await server.start()
        print(server.port)          # ephemeral port actually bound
        ...
        await server.aclose()       # graceful drain + GOAWAY

    or as an async context manager (``async with NetServer(...) as s:``).
    """

    def __init__(
        self,
        frontend: Optional[Frontend] = None,
        config: Optional[NetServerConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        engine: Optional[BatchEngine] = None,
        frontend_config=None,
        **overrides: Any,
    ):
        self.config = replace(config or NetServerConfig(), **overrides)
        self.metrics = metrics if metrics is not None else get_registry()
        if frontend is not None:
            if engine is not None or frontend_config is not None:
                raise ValueError(
                    "pass either an existing frontend or engine/frontend_config"
                )
            self.frontend = frontend
            self._owns_frontend = False
        else:
            self.frontend = Frontend(
                engine, config=frontend_config, metrics=self.metrics
            )
            self._owns_frontend = True
        self._server: Optional[asyncio.base_events.Server] = None
        self._conns: Dict[int, _Conn] = {}
        self._next_conn_id = 1
        #: One task per received REQUEST frame, until its response is out.
        self._requests: Set[asyncio.Task] = set()
        self._draining = False
        self._closed = False

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> "NetServer":
        """Bind and start accepting connections; returns ``self``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_conn, host=self.config.host, port=self.config.port
        )
        return self

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` requests)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def connections(self) -> int:
        """Connections currently in the established state."""
        return len(self._conns)

    @property
    def draining(self) -> bool:
        return self._draining

    def install_signal_handlers(self, loop=None) -> None:
        """Route SIGTERM/SIGINT into a graceful :meth:`aclose`."""
        import signal

        loop = loop or asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.aclose())
            )

    async def serve_until_closed(self) -> None:
        """Block until :meth:`aclose` completes (e.g. from a signal)."""
        while not self._closed:
            await asyncio.sleep(0.05)

    async def aclose(self, drain: bool = True) -> None:
        """Stop accepting, GOAWAY every client, drain, close.

        ``drain=True`` (default) waits for every already-received
        request to resolve through the Frontend; ``drain=False`` answers
        the unresolved ones with ``Overloaded`` frames immediately.
        Either way the connections close within one ``drain_timeout_s``:
        requests still unresolved then are withdrawn from the Frontend
        (they never run) and answered ``Overloaded``.  An owned Frontend
        is closed last, without draining when anything was withdrawn, so
        only a flush already under way can outlast the budget.
        Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # GOAWAY first (clients stop sending), then stop the read loops.
        for conn in list(self._conns.values()):
            await self._send_frame(conn, FRAME_GOAWAY, 0,
                                   {"reason": "server draining"})
            conn.goaway_sent = True
        for conn in list(self._conns.values()):
            if conn.task is not None and not conn.task.done():
                conn.task.cancel()
        loop = asyncio.get_running_loop()
        give_up_at = loop.time() + self.config.drain_timeout_s
        if drain and self._requests:
            await asyncio.wait(
                list(self._requests), timeout=self.config.drain_timeout_s
            )
        # Whatever still waits on the Frontend (drain=False, or the
        # timeout fired) is withdrawn and answers with a typed
        # Overloaded frame — never silence.  Responses already being
        # written get the rest of the budget to finish.
        abandoned = [t for conn in self._conns.values() for t in conn.waiting]
        for task in abandoned:
            task.cancel()
        if self._requests:
            await asyncio.wait(
                list(self._requests),
                timeout=max(give_up_at - loop.time(), 0.0),
            )
        for conn in list(self._conns.values()):
            await self._close_conn(conn)
        if self._owns_frontend and not self.frontend.closed:
            await self.frontend.aclose(drain=drain and not abandoned)

    async def __aenter__(self) -> "NetServer":
        if self._server is None:
            await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    # -- connection handling ----------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        cfg = self.config
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        if self._draining or len(self._conns) >= cfg.max_connections:
            reason = ("server draining" if self._draining
                      else f"connection limit ({cfg.max_connections}) reached")
            self.metrics.counter(
                "repro_net_connections_total", event="refused"
            ).inc()
            try:
                frame = encode_frame(FRAME_GOAWAY, 0, {"reason": reason},
                                     max_frame=cfg.max_frame_bytes)
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        conn: Optional[_Conn] = None
        try:
            conn = await self._handshake(reader, writer, peer)
        except (ProtocolError, asyncio.TimeoutError,
                asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            kind = exc.kind if isinstance(exc, ProtocolError) else "handshake"
            self._protocol_error_counters(kind)
            try:
                writer.write(encode_frame(
                    FRAME_ERROR, 0,
                    {"error": kind, "message": str(exc) or "handshake failed"},
                    max_frame=cfg.max_frame_bytes,
                ))
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        conn.task = asyncio.current_task()
        self._conns[conn.id] = conn
        self.metrics.counter("repro_net_connections_total", event="opened").inc()
        self.metrics.gauge("repro_net_connections_open").set(len(self._conns))
        try:
            await self._read_loop(conn)
        except asyncio.CancelledError:
            if self._draining:
                # aclose() stopped this read loop; the connection stays
                # registered so its requests drain to completion.
                return
            raise
        except (FrameTooLarge, ProtocolError) as exc:
            self._protocol_error_counters(exc.kind)
            await self._send_frame(conn, FRAME_ERROR, 0,
                                   {"error": exc.kind, "message": str(exc)})
            await self._conn_lost(conn)
        except asyncio.TimeoutError:
            # Slowloris: a frame opened and never finished arriving.
            self._protocol_error_counters("stall")
            await self._send_frame(conn, FRAME_ERROR, 0, {
                "error": "stall",
                "message": f"frame stalled past {cfg.frame_timeout_s:g} s",
            })
            await self._conn_lost(conn)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            # Mid-request disconnect: drop undeliverable work, keep serving.
            await self._conn_lost(conn)
        except Exception as exc:
            # A handler bug must still end this connection typed and
            # unregistered, never as an untyped drop left in _conns.
            log.exception("connection %d: handler failed", conn.id)
            self._protocol_error_counters("internal")
            await self._send_frame(conn, FRAME_ERROR, 0, {
                "error": "internal", "message": f"{type(exc).__name__}: {exc}",
            })
            await self._conn_lost(conn)
        else:
            # Clean exit (client GOAWAY): drain this connection's
            # outstanding requests, then close.
            try:
                await asyncio.wait_for(conn.idle.wait(),
                                       timeout=cfg.drain_timeout_s)
            except asyncio.TimeoutError:
                pass
            except asyncio.CancelledError:
                if self._draining:
                    # aclose() took over; it drains and closes every
                    # still-registered connection itself.
                    return
                raise
            await self._close_conn(conn)

    async def _handshake(self, reader, writer, peer: str) -> _Conn:
        cfg = self.config
        frame = await read_frame(
            reader,
            max_frame=cfg.max_frame_bytes,
            first_byte_timeout=cfg.handshake_timeout_s,
            body_timeout=cfg.frame_timeout_s,
        )
        self._record("in", frame.type_name, frame.wire_size)
        if frame.type != FRAME_HELLO:
            raise ProtocolError(
                "handshake", f"expected HELLO, got {frame.type_name}"
            )
        body = frame.body if isinstance(frame.body, dict) else {}
        versions = body.get("versions")
        if not isinstance(versions, list) or PROTOCOL_VERSION not in versions:
            raise ProtocolError(
                "bad_version",
                f"no common protocol version (client offers {versions!r})",
            )
        offered = body.get("codecs")
        if not isinstance(offered, list) or not offered:
            offered = ["json"]
        chosen = next((c for c in offered if c in SUPPORTED_CODECS), None)
        if chosen is None:
            raise ProtocolError(
                "bad_codec", f"no common codec (client offers {offered!r})"
            )
        conn = _Conn(self._next_conn_id, peer, reader, writer, codec_id(chosen))
        self._next_conn_id += 1
        hello_ok = {
            "version": PROTOCOL_VERSION,
            "codec": chosen,
            "max_frame": cfg.max_frame_bytes,
            "max_inflight": cfg.max_inflight_per_conn,
            "server": "repro-net",
        }
        # The HELLO exchange itself is always JSON (bootstrap).
        data = encode_frame(FRAME_HELLO_OK, frame.request_id, hello_ok,
                            max_frame=cfg.max_frame_bytes)
        writer.write(data)
        await writer.drain()
        self._record("out", "hello_ok", len(data))
        return conn

    async def _read_loop(self, conn: _Conn) -> None:
        cfg = self.config
        while not self._draining:
            # Backpressure: at the per-connection wall we stop reading;
            # the client's unread frames wait in kernel buffers.
            while conn.inflight >= cfg.max_inflight_per_conn:
                conn.space.clear()
                if conn.inflight < cfg.max_inflight_per_conn:
                    break
                await conn.space.wait()
            frame = await read_frame(
                conn.reader,
                max_frame=cfg.max_frame_bytes,
                first_byte_timeout=None,  # idle connections are welcome
                body_timeout=cfg.frame_timeout_s,
            )
            self._record("in", frame.type_name, frame.wire_size)
            if frame.type == FRAME_REQUEST:
                await self._accept_request(conn, frame)
            elif frame.type == FRAME_PING:
                await self._send_frame(conn, FRAME_PONG, frame.request_id, {})
            elif frame.type == FRAME_GOAWAY:
                return  # client is leaving; drain its outstanding, close
            else:
                raise ProtocolError(
                    "bad_type",
                    f"client may not send {frame.type_name} frames",
                )

    async def _accept_request(self, conn: _Conn, frame: Frame) -> None:
        if not conn.alive:
            return  # torn down mid-read: nobody to answer
        received_at = time.perf_counter()
        body = frame.body if isinstance(frame.body, dict) else {}
        kind, deadline_ms = "?", body.get("deadline_ms")
        try:
            # Only the table's wire kinds get through, and only they
            # ever become a ``kind`` label: the label set stays bounded.
            kind = job_kind(body.get("kind"), wire=True).name
            if deadline_ms is not None and (
                not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool) or deadline_ms <= 0
            ):
                raise ValueError("deadline_ms must be a positive number")
            payload = wire_decode(body.get("payload"))
        except Exception as exc:
            # A bad kind, deadline or payload (WireCodecError is a
            # ValueError) is the client's; anything else is ours.  Either
            # way only this request fails, never the connection.
            if isinstance(exc, ValueError):
                failure = Failed(kind=KIND_VALUE, message=str(exc))
            else:
                log.exception("request %d: admission failed", frame.request_id)
                failure = Failed(kind=KIND_INTERNAL,
                                 message=f"{type(exc).__name__}: {exc}")
            await self._respond_failed(conn, frame.request_id, failure)
            self._request_counters(kind, "failed")
            return
        # Deadline clamp: the client's relative budget never exceeds
        # the operator's default_deadline_ms.
        default_ms = self.frontend.config.default_deadline_ms
        if deadline_ms is None:
            effective_ms = default_ms
        elif default_ms is None:
            effective_ms = float(deadline_ms)
        else:
            effective_ms = min(float(deadline_ms), default_ms)
        budget = None if effective_ms is None else effective_ms / 1000.0
        conn.inflight += 1
        conn.idle.clear()
        task = asyncio.get_running_loop().create_task(self._serve_request(
            conn, frame.request_id, kind, payload, budget, received_at
        ))
        self._requests.add(task)
        task.add_done_callback(self._requests.discard)

    async def _serve_request(self, conn: _Conn, request_id: int, kind: str,
                             payload: Any, budget: Optional[float],
                             received_at: float) -> None:
        """Submit one request to the Frontend and write its response."""
        task = asyncio.current_task()
        conn.waiting.add(task)
        try:
            outcome = await self.frontend.submit_outcome(
                kind, payload, deadline=budget, source=conn.id
            )
        except Overloaded as exc:
            outcome = Failed(kind=KIND_OVERLOADED, message=str(exc))
        except FrontendClosed:
            outcome = Failed(kind=KIND_OVERLOADED,
                             message="frontend closed; request refused")
        except asyncio.CancelledError:
            # The connection died, or aclose() stopped waiting; either
            # way the Frontend has withdrawn the request.
            outcome = Failed(kind=KIND_OVERLOADED,
                             message="server draining; request not completed")
        except (ValueError, TypeError) as exc:
            # Refused at admission: a typed per-request failure, never
            # a dead connection.
            outcome = Failed(kind=KIND_VALUE, message=str(exc))
        finally:
            conn.waiting.discard(task)
        try:
            if not conn.alive:
                return  # peer gone: no frame, nothing to count
            if isinstance(outcome, Failed) and outcome.kind == KIND_OVERLOADED:
                # Refused, shed or abandoned: one typed overloaded frame.
                await self._respond_overloaded(conn, request_id, outcome.message)
                return
            if isinstance(outcome, Failed):
                await self._respond_failed(conn, request_id, outcome)
                self._request_counters(kind, "failed")
            else:
                value = outcome.value if isinstance(outcome, Ok) else outcome
                await self._respond_ok(conn, request_id, value)
                self._request_counters(kind, "ok")
            self.metrics.histogram(
                "repro_net_request_latency_seconds"
            ).observe(time.perf_counter() - received_at)
        finally:
            conn.inflight -= 1
            if conn.inflight < self.config.max_inflight_per_conn:
                conn.space.set()
            if conn.inflight == 0:
                conn.idle.set()

    # -- response writing ----------------------------------------------------
    async def _respond_ok(self, conn: _Conn, request_id: int, value: Any) -> None:
        try:
            body = {"status": "ok", "value": wire_encode(value)}
        except WireCodecError as exc:  # pragma: no cover - defensive
            await self._respond_failed(conn, request_id, Failed(
                kind=KIND_INTERNAL, message=f"unencodable result: {exc}",
            ))
            return
        await self._send_frame(conn, FRAME_RESPONSE, request_id, body)

    async def _respond_failed(self, conn: _Conn, request_id: int,
                              failure: Failed) -> None:
        await self._send_frame(conn, FRAME_RESPONSE, request_id, {
            "status": "failed",
            "kind": failure.kind,
            "message": failure.message,
            "index": failure.index,
            "latency": failure.latency,
        })

    async def _respond_overloaded(self, conn: _Conn, request_id: int,
                                  message: str) -> None:
        self._request_counters("?", "overloaded")
        await self._send_frame(conn, FRAME_RESPONSE, request_id, {
            "status": "overloaded",
            "message": message,
        })

    async def _send_frame(self, conn: _Conn, frame_type: int,
                          request_id: int, body: Any) -> bool:
        """Serialize + write one frame; False when the peer is gone."""
        if not conn.alive:
            return False
        try:
            data = encode_frame(
                frame_type, request_id, body, codec=conn.codec,
                max_frame=self.config.max_frame_bytes,
            )
        except FrameTooLarge:
            data = encode_frame(
                FRAME_RESPONSE, request_id,
                {"status": "failed", "kind": KIND_INTERNAL,
                 "message": "response exceeded the frame size bound",
                 "index": -1, "latency": 0.0},
                codec=conn.codec, max_frame=self.config.max_frame_bytes,
            )
        async with conn.write_lock:
            if not conn.alive:
                return False
            try:
                conn.writer.write(data)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                await self._conn_lost(conn)
                return False
        self._record("out", FRAME_NAMES.get(frame_type, "?"), len(data))
        return True

    # -- teardown --------------------------------------------------------
    async def _conn_lost(self, conn: _Conn) -> None:
        """Abrupt teardown: peer vanished or violated the protocol.

        Requests still waiting in the Frontend are withdrawn (their
        responses have nowhere to go); only those already taken into a
        flush complete, and their responses are discarded by the
        ``alive`` guard.
        """
        if not conn.alive:
            return
        conn.alive = False
        for task in conn.waiting:
            task.cancel()
        conn.space.set()
        self._unregister(conn)
        try:
            conn.writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - best effort
            pass

    async def _close_conn(self, conn: _Conn) -> None:
        """Orderly close after a drain; withdraws what it outlasted."""
        if conn.alive:
            conn.alive = False
            for task in conn.waiting:
                task.cancel()
            try:
                conn.writer.close()
                await conn.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._unregister(conn)

    def _unregister(self, conn: _Conn) -> None:
        if self._conns.pop(conn.id, None) is not None:
            self.metrics.counter(
                "repro_net_connections_total", event="closed"
            ).inc()
            self.metrics.gauge(
                "repro_net_connections_open"
            ).set(len(self._conns))

    # -- counters ----------------------------------------------------------
    def _record(self, direction: str, type_name: str, nbytes: int) -> None:
        self.metrics.counter(
            "repro_net_frames_total", direction=direction, type=type_name
        ).inc()
        self.metrics.counter("repro_net_bytes_total", direction=direction).inc(nbytes)

    def _request_counters(self, kind: str, outcome: str) -> None:
        self.metrics.counter(
            "repro_net_requests_total", kind=kind, outcome=outcome
        ).inc()

    def _protocol_error_counters(self, kind: str) -> None:
        self.metrics.counter(
            "repro_net_protocol_errors_total", kind=kind
        ).inc()
