"""The TCP front door's four load-bearing promises, tested end to end.

Every test runs a real :class:`NetServer` on an ephemeral loopback
port with real :class:`NetClient` connections — only the engine is a
stub (instant, recording), so the suite pins the *transport* contract
(docs/protocol.md) without paying for the datapath:

* **fairness** — a firehose connection keeping hundreds of requests on
  the wire cannot starve a polite one-at-a-time client: the Frontend's
  per-source batch rotation bounds the polite client's completed share
  from below;
* **shedding** — the Frontend's ``shed`` policy answers with typed
  ``overloaded`` responses, and the per-connection cap turns into
  socket backpressure, not loss;
* **deadline propagation** — client budgets are clamped to the
  Frontend's ``default_deadline_ms`` and expiries come back as typed
  ``Failed(kind="deadline")`` frames;
* **graceful drain** — ``aclose()`` GOAWAYs every client, resolves
  every already-received request, and refuses newcomers.

Schedules draw from ``PYTEST_SEED`` (default pinned);
``PYTEST_SEED=12345 pytest tests/test_net_server.py`` reproduces a CI
failure exactly.
"""

import asyncio
import os
import random
import time
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import MetricsRegistry
from repro.serve import (
    BatchResult,
    Failed,
    Frontend,
    FrontendConfig,
    NetClient,
    NetClientClosed,
    NetServer,
    NetServerConfig,
)
from repro.serve.faults import KIND_DEADLINE, KIND_OVERLOADED, Overloaded
from repro.serve.net.protocol import (
    FRAME_ERROR,
    FRAME_HELLO,
    FRAME_HELLO_OK,
    FRAME_REQUEST,
    FRAME_RESPONSE,
    HEADER_SIZE,
    ConnectionLostError,
    encode_frame,
    read_frame,
)
from tests.metrics_util import count

SEED = int(os.environ.get("PYTEST_SEED", "0xF10C"), 0)


def _rng(tag: str) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


class StubEngine:
    """Recording engine: echoes payloads, optional synchronous delay."""

    def __init__(self, delay: float = 0.0):
        self.batches = []
        self.delay = delay

    def run_jobs(self, jobs, workers=0, dedup=True, strict=False,
                 min_chunk=None, deadline=None):
        kinds = {kind for kind, _ in jobs}
        assert len(kinds) == 1, f"mixed-kind flush: {kinds}"
        self.batches.append((next(iter(kinds)), [p for _, p in jobs]))
        if self.delay:
            time.sleep(self.delay)
        return BatchResult(results=[("echo", p) for _, p in jobs])


def run(coro):
    """Run one async test body (no pytest-asyncio dependency)."""
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


def make_server(stub=None, *, frontend_kwargs=None, **net_kwargs):
    """A NetServer over a StubEngine frontend on a private registry."""
    fe = Frontend(
        stub if stub is not None else StubEngine(),
        config=FrontendConfig(**{
            "max_batch": 8, "max_wait_ms": 2.0,
            **(frontend_kwargs or {}),
        }),
        metrics=MetricsRegistry(),
    )
    return NetServer(frontend=fe, metrics=MetricsRegistry(),
                     config=NetServerConfig(port=0, **net_kwargs))


class TestRoundTrip:
    def test_submit_echoes_through_the_wire(self):
        async def body():
            server = await make_server().start()
            try:
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    assert await client.submit("sm", (5, None)) == \
                        ("echo", (5, None))
                    out = await asyncio.gather(
                        *[client.submit("sm", (i, None)) for i in range(32)]
                    )
                    assert out == [("echo", (i, None)) for i in range(32)]
                    assert await client.ping() < 5.0
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert count(server.metrics, "repro_net_requests_total",
                         outcome="ok") == 33
            assert count(server.metrics, "repro_net_connections_total",
                         event="opened") == 1
            assert count(server.metrics, "repro_net_connections_total",
                         event="closed") == 1

        run(body())

    def test_many_connections_share_one_frontend(self):
        async def body():
            stub = StubEngine()
            server = await make_server(stub).start()
            try:
                clients = [
                    await NetClient.connect("127.0.0.1", server.port)
                    for _ in range(5)
                ]
                out = await asyncio.gather(*[
                    c.submit("sm", (i * 10 + j, None))
                    for i, c in enumerate(clients) for j in range(8)
                ])
                assert len(out) == 40
                assert sum(len(p) for _, p in stub.batches) == 40
                for c in clients:
                    await c.aclose()
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert count(server.metrics, "repro_net_connections_total",
                         event="opened") == 5

        run(body())

    def test_unknown_kind_is_a_typed_failure_not_a_dead_socket(self):
        async def body():
            server = await make_server().start()
            try:
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    outcome = await client.submit_outcome("warp-drive", ())
                    assert isinstance(outcome, Failed)
                    assert outcome.kind == "value"
                    # The connection survived the bad request.
                    assert await client.submit("sm", (1, None)) == \
                        ("echo", (1, None))
            finally:
                await server.aclose()
                await server.frontend.aclose()

        run(body())


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)
_BODIES = _JSON | st.fixed_dictionaries(
    {
        "kind": st.sampled_from(["sm", "dh", "verify", "msm", "fault"]) | _JSON,
        "payload": _JSON,
    },
    optional={"deadline_ms": _JSON},
)


async def _exchange(frames: list) -> list:
    """Send raw REQUEST frames on one connection; the answers, in order.

    Reads until every request has a RESPONSE or the server sends an
    ERROR frame, then leaves and checks nothing stays registered.
    """
    server = await make_server(frame_timeout_s=0.3).start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(encode_frame(FRAME_HELLO, 0, {"versions": [1]}))
        assert (await read_frame(reader)).type == FRAME_HELLO_OK
        for data in frames:
            writer.write(data)
        await writer.drain()
        answers = []
        while len(answers) < len(frames):
            frame = await read_frame(reader)
            assert frame.type in (FRAME_RESPONSE, FRAME_ERROR), frame.type_name
            answers.append(frame)
            if frame.type == FRAME_ERROR:
                break
        writer.close()
        for _ in range(200):
            if not server._conns:
                break
            await asyncio.sleep(0.01)
        assert not server._conns
        assert [g["value"] for g in server.metrics.snapshot()["gauges"]
                if g["name"] == "repro_net_connections_open"] == [0]
    finally:
        await server.aclose()
        await server.frontend.aclose()
    return answers


class TestHostileRequests:
    """Whatever a REQUEST carries, the request gets a RESPONSE (a value
    or a typed failure) or the connection a typed ERROR frame."""

    def test_deeply_nested_payload_is_a_typed_failure(self):
        """A 600-deep list payload (about 1.2 kB on the wire) once blew
        the decoder's recursion and dropped the connection untyped."""
        nested = 7
        for _ in range(600):
            nested = [nested]
        deep, ok = run(_exchange([
            encode_frame(FRAME_REQUEST, 1, {"kind": "sm", "payload": nested}),
            encode_frame(FRAME_REQUEST, 2, {"kind": "sm", "payload": [3, None]}),
        ]))
        assert (deep.request_id, deep.body["status"], deep.body["kind"]) == \
            (1, "failed", "value")
        assert "nests deeper" in deep.body["message"]
        assert (ok.request_id, ok.body["status"]) == (2, "ok")

    @given(bodies=st.lists(_BODIES, min_size=1, max_size=4))
    def test_any_json_body_gets_a_response(self, bodies):
        frames = [encode_frame(FRAME_REQUEST, i, b) for i, b in enumerate(bodies, 1)]
        answers = run(_exchange(frames))
        assert [f.type for f in answers] == [FRAME_RESPONSE] * len(bodies)
        for frame in answers:
            assert frame.body["status"] in ("ok", "failed")

    @given(body=_BODIES, data=st.data())
    def test_mutated_body_bytes_get_a_response_or_a_typed_error(self, body, data):
        frame = bytearray(encode_frame(FRAME_REQUEST, 1, body))
        start = 4 + HEADER_SIZE
        for at in data.draw(st.lists(
            st.integers(start, len(frame) - 1), min_size=1, max_size=3
        )):
            frame[at] = data.draw(st.integers(0, 255))
        (answer,) = run(_exchange([bytes(frame)]))
        if answer.type == FRAME_ERROR:
            assert answer.body["error"]
        else:
            assert answer.body["status"] in ("ok", "failed")


class TestWireBytes:
    def test_inbound_bytes_are_the_bytes_on_the_wire(self):
        """HELLO included, and a body whose JSON is not byte-canonical
        counted as sent, not as the server would re-encode it."""
        loose = b'{ "kind" : "sm" ,\n  "payload" : [ 3 , null ] }'
        header = encode_frame(FRAME_REQUEST, 1, {})[4:4 + HEADER_SIZE]
        request = (HEADER_SIZE + len(loose)).to_bytes(4, "big") + header + loose
        hello = encode_frame(FRAME_HELLO, 0, {"versions": [1]})

        async def body():
            server = await make_server().start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(hello + request)
                await writer.drain()
                assert (await read_frame(reader)).type == FRAME_HELLO_OK
                answer = await read_frame(reader)
                assert (answer.type, answer.body["status"]) == (FRAME_RESPONSE, "ok")
                writer.close()
                return count(server.metrics, "repro_net_bytes_total", direction="in")
            finally:
                await server.aclose()
                await server.frontend.aclose()

        assert run(body()) == len(hello) + len(request)


class TestFairness:
    def test_firehose_cannot_starve_a_polite_client(self):
        # A slow engine makes service the bottleneck; the firehose
        # keeps its whole in-flight window full while the polite client
        # submits one request at a time.  Per-source batch rotation must
        # keep the polite client's share of completions near 1/2, far
        # above the ~window/(window+1) starvation it would get FIFO.
        async def body():
            stub = StubEngine(delay=0.002)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 4, "max_wait_ms": 1.0},
                max_inflight_per_conn=16,
            ).start()
            done = {"firehose": 0, "polite": 0}
            stop = asyncio.Event()
            try:
                fire = await NetClient.connect("127.0.0.1", server.port,
                                               client_name="firehose")
                polite = await NetClient.connect("127.0.0.1", server.port,
                                                 client_name="polite")

                async def firehose_worker(i):
                    while not stop.is_set():
                        await fire.submit("sm", (i, None))
                        done["firehose"] += 1

                async def polite_worker():
                    while not stop.is_set():
                        await polite.submit("sm", (0, None))
                        done["polite"] += 1

                workers = [asyncio.ensure_future(firehose_worker(i))
                           for i in range(16)]
                # Window of 3: enough that the polite client usually
                # has one request queued when its rotation turn comes
                # (fairness cannot serve a client who hasn't asked),
                # still 5x less outstanding than the firehose.
                workers += [asyncio.ensure_future(polite_worker())
                            for _ in range(3)]
                await asyncio.sleep(1.0)
                stop.set()
                await asyncio.gather(*workers)
                await fire.aclose()
                await polite.aclose()
            finally:
                await server.aclose()
                await server.frontend.aclose()
            total = done["firehose"] + done["polite"]
            share = done["polite"] / total
            # Issue gate: slowest client's share >= 0.5 / n_clients.
            assert share >= 0.25, (done, share)

        run(body())

    def test_fairness_holds_when_windows_overflow_the_queue(self):
        # Three firehose connections keep 3 x 32 requests outstanding
        # against a lane of 8, so most of each window waits blocked at
        # admission.  Freed space goes to the lightest source first, so
        # the polite client still gets its per-flush rotation slot.
        async def body():
            stub = StubEngine(delay=0.002)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 4, "max_wait_ms": 1.0,
                                 "max_queue": 8},
                max_inflight_per_conn=32,
            ).start()
            names = ["fire0", "fire1", "fire2", "polite"]
            done = dict.fromkeys(names, 0)
            stop = asyncio.Event()
            try:
                clients = {
                    name: await NetClient.connect("127.0.0.1", server.port,
                                                  client_name=name)
                    for name in names
                }

                async def worker(name):
                    while not stop.is_set():
                        await clients[name].submit("sm", (0, None))
                        done[name] += 1

                workers = [asyncio.ensure_future(worker(name))
                           for name in names[:3] for _ in range(32)]
                workers += [asyncio.ensure_future(worker("polite"))
                            for _ in range(3)]
                await asyncio.sleep(1.0)
                stop.set()
                await asyncio.gather(*workers)
                for client in clients.values():
                    await client.aclose()
            finally:
                await server.aclose()
                await server.frontend.aclose()
            share = done["polite"] / sum(done.values())
            # Slowest client's share >= 0.5 / n_clients; FIFO admission
            # would leave it behind ~88 blocked firehose requests (~3%).
            assert share >= 0.5 / len(names), (done, share)

        run(body())


class TestSheddingAndBackpressure:
    def test_shed_policy_answers_with_overloaded_frames(self):
        async def body():
            # A slow engine and a tiny Frontend queue under the shed
            # policy: a burst past the bound sheds the oldest queued
            # requests, each answered by a typed overloaded frame.
            stub = StubEngine(delay=0.01)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 2, "max_wait_ms": 1.0,
                                 "max_queue": 4, "policy": "shed"},
                max_inflight_per_conn=64,
            ).start()
            try:
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    rng = _rng("shed")
                    outcomes = await asyncio.gather(*[
                        client.submit_outcome(
                            "sm", (i, None),
                            deadline=rng.uniform(5.0, 30.0),
                        )
                        for i in range(48)
                    ])
                shed = [o for o in outcomes if isinstance(o, Failed)
                        and o.kind == KIND_OVERLOADED]
                served = [o for o in outcomes if not isinstance(o, Failed)]
                assert len(shed) + len(served) == 48
                assert shed, "queue of 4 with 48 arriving must shed"
                assert served, "shedding must not become total refusal"
                assert count(server.frontend.metrics,
                             "repro_frontend_admissions_total",
                             outcome="shed") == len(shed)
                assert count(server.metrics, "repro_net_requests_total",
                             outcome="overloaded") == len(shed)
            finally:
                await server.aclose()
                await server.frontend.aclose()

        run(body())

    def test_per_conn_cap_is_backpressure_not_loss(self):
        async def body():
            stub = StubEngine(delay=0.001)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 4, "max_wait_ms": 1.0},
                max_inflight_per_conn=2,
            ).start()
            try:
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    # 40 concurrent submits against a cap of 2: every
                    # one completes (the socket just waits its turn).
                    out = await asyncio.gather(
                        *[client.submit("sm", (i, None)) for i in range(40)]
                    )
                    assert sorted(p[0] for _, p in out) == list(range(40))
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert count(server.metrics, "repro_net_requests_total",
                         outcome="overloaded") == 0

        run(body())

    def test_frontend_reject_policy_surfaces_as_overloaded_frames(self):
        async def body():
            stub = StubEngine(delay=0.01)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 1, "max_wait_ms": 0.5,
                                 "max_queue": 1, "policy": "reject"},
                max_inflight_per_conn=64,
            ).start()
            try:
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    outcomes = await asyncio.gather(*[
                        client.submit_outcome("sm", (i, None))
                        for i in range(24)
                    ])
                rejected = [o for o in outcomes if isinstance(o, Failed)
                            and o.kind == KIND_OVERLOADED]
                served = [o for o in outcomes if not isinstance(o, Failed)]
                assert len(rejected) + len(served) == 24
                assert rejected, "queue bound 1 under burst must reject"
                # And the client-side submit() projection raises typed.
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    with pytest.raises(Overloaded):
                        for i in range(24):
                            await asyncio.gather(*[
                                client.submit("sm", (j, None))
                                for j in range(12)
                            ])
            finally:
                await server.aclose()
                await server.frontend.aclose()

        run(body())

    def test_connection_limit_refuses_with_goaway(self):
        async def body():
            server = await make_server(max_connections=2).start()
            try:
                a = await NetClient.connect("127.0.0.1", server.port)
                b = await NetClient.connect("127.0.0.1", server.port)
                with pytest.raises(ConnectionLostError):
                    await NetClient.connect("127.0.0.1", server.port)
                await a.aclose()
                await b.aclose()
            finally:
                await server.aclose()
                await server.frontend.aclose()
            assert count(server.metrics, "repro_net_connections_total",
                         event="refused") == 1

        run(body())


class TestDeadlinePropagation:
    def test_client_budget_expires_as_typed_failure(self):
        async def body():
            stub = StubEngine(delay=0.05)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 1, "max_wait_ms": 0.5,
                                 "max_queue": 512},
                max_inflight_per_conn=64,
            ).start()
            try:
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    outcomes = await asyncio.gather(*[
                        client.submit_outcome("sm", (i, None),
                                              deadline=0.08)
                        for i in range(16)
                    ])
                expired = [o for o in outcomes if isinstance(o, Failed)
                           and o.kind == KIND_DEADLINE]
                # 16 x 50 ms of serial service against an 80 ms budget:
                # most of the tail must expire, every expiry typed.
                assert expired, outcomes
                for o in outcomes:
                    if isinstance(o, Failed):
                        assert o.kind in (KIND_DEADLINE, KIND_OVERLOADED), o
            finally:
                await server.aclose()
                await server.frontend.aclose()

        run(body())

    def test_server_clamps_budgets_to_default_deadline(self):
        async def body():
            stub = StubEngine(delay=0.05)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 1, "max_wait_ms": 0.5,
                                 "max_queue": 512,
                                 "default_deadline_ms": 60.0},
                max_inflight_per_conn=64,
            ).start()
            try:
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    # The client asks for an hour; the operator said
                    # 60 ms.  The tail must still expire.
                    outcomes = await asyncio.gather(*[
                        client.submit_outcome("sm", (i, None),
                                              deadline=3600.0)
                        for i in range(12)
                    ])
                expired = [o for o in outcomes if isinstance(o, Failed)
                           and o.kind == KIND_DEADLINE]
                assert expired, "default_deadline_ms clamp did not bite"
            finally:
                await server.aclose()
                await server.frontend.aclose()

        run(body())

    def test_invalid_deadline_is_a_typed_value_failure(self):
        async def body():
            server = await make_server().start()
            try:
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    with pytest.raises(ValueError):
                        await client.submit("sm", (1, None), deadline=-1.0)
                    # Still alive afterwards.
                    assert await client.submit("sm", (1, None)) == \
                        ("echo", (1, None))
            finally:
                await server.aclose()
                await server.frontend.aclose()

        run(body())


class TestGracefulDrain:
    def test_aclose_resolves_inflight_and_goaways(self):
        async def body():
            stub = StubEngine(delay=0.005)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 4, "max_wait_ms": 1.0},
                max_inflight_per_conn=64,
            ).start()
            client = await NetClient.connect("127.0.0.1", server.port)
            futs = [
                asyncio.ensure_future(client.submit_outcome("sm", (i, None)))
                for i in range(24)
            ]
            await asyncio.sleep(0.02)  # some queued, some in flight
            await server.aclose()
            outcomes = await asyncio.gather(*futs, return_exceptions=True)
            # Exactly once each: an echo, a typed overload (drain wall),
            # or a connection-lost error — never a hang (wait_for above).
            for o in outcomes:
                assert (
                    (not isinstance(o, BaseException)
                     and not isinstance(o, Failed))
                    or (isinstance(o, Failed)
                        and o.kind in (KIND_OVERLOADED, "cancelled"))
                    or isinstance(o, (ConnectionLostError, NetClientClosed))
                ), o
            # GOAWAY reached the client: new submits are refused there.
            assert client.closed
            with pytest.raises(NetClientClosed):
                await client.submit("sm", (99, None))
            await client.aclose()
            await server.frontend.aclose()

        run(body())

    def test_draining_server_refuses_new_connections(self):
        async def body():
            server = await make_server().start()
            port = server.port
            client = await NetClient.connect("127.0.0.1", port)
            await client.aclose()
            await server.aclose()
            with pytest.raises((ConnectionLostError, ConnectionError,
                                OSError)):
                await NetClient.connect("127.0.0.1", port)
            await server.frontend.aclose()

        run(body())

    def test_aclose_is_idempotent(self):
        async def body():
            server = await make_server().start()
            await server.aclose()
            await server.aclose()
            await server.frontend.aclose()

        run(body())

    def test_owned_frontend_drains_with_the_server(self):
        async def body():
            server = NetServer(
                engine=StubEngine(),
                frontend_config=FrontendConfig(max_batch=4, max_wait_ms=1.0),
                metrics=MetricsRegistry(),
                config=NetServerConfig(port=0),
            )
            await server.start()
            async with await NetClient.connect(
                "127.0.0.1", server.port
            ) as client:
                assert await client.submit("sm", (3, None)) == \
                    ("echo", (3, None))
            await server.aclose()
            assert server.frontend.closed

        run(body())

    def test_drain_timeout_withdraws_what_it_abandons(self):
        # An owned Frontend with far more queued than the drain budget
        # can serve: what is still waiting when the budget runs out is
        # answered overloaded and never run afterwards.
        async def body():
            stub = StubEngine(delay=0.05)
            server = NetServer(
                engine=stub,
                frontend_config=FrontendConfig(max_batch=2, max_wait_ms=1.0),
                metrics=MetricsRegistry(),
                config=NetServerConfig(port=0, drain_timeout_s=0.2),
            )
            await server.start()
            client = await NetClient.connect("127.0.0.1", server.port)
            futs = [
                asyncio.ensure_future(client.submit_outcome("sm", (i, None)))
                for i in range(32)
            ]
            await asyncio.sleep(0.05)
            await server.aclose()
            assert server.frontend.closed
            outcomes = await asyncio.gather(*futs, return_exceptions=True)
            await client.aclose()
            overloaded = [o for o in outcomes if isinstance(o, Failed)
                          and o.kind == KIND_OVERLOADED]
            assert overloaded, "a 0.2 s budget cannot serve 32 x 25 ms"
            served = count(server.metrics, "repro_net_requests_total",
                           outcome="ok")
            executed = sum(len(p) for _, p in stub.batches)
            # Only the flush under way when the budget ran out may run
            # for a caller that was already refused.
            assert executed <= served + 2, (executed, served)

        run(body())

    def test_client_goaway_drains_then_closes(self):
        async def body():
            stub = StubEngine(delay=0.002)
            server = await make_server(stub).start()
            try:
                client = await NetClient.connect("127.0.0.1", server.port)
                futs = [
                    asyncio.ensure_future(client.submit("sm", (i, None)))
                    for i in range(8)
                ]
                await asyncio.sleep(0.01)
                await client.aclose()  # sends GOAWAY with work in flight
                # The server must not crash and must fully release the
                # connection once its outstanding work resolves.
                for _ in range(100):
                    if server.connections == 0:
                        break
                    await asyncio.sleep(0.02)
                assert server.connections == 0
                await asyncio.gather(*futs, return_exceptions=True)
            finally:
                await server.aclose()
                await server.frontend.aclose()

        run(body())
