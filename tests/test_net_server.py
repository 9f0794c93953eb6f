"""The TCP front door's four load-bearing promises, tested end to end.

Every test runs a real :class:`NetServer` on an ephemeral loopback
port with real :class:`NetClient` connections — only the engine is a
stub (instant, recording), so the suite pins the *transport* contract
(docs/protocol.md) without paying for the datapath:

* **fairness** — a firehose connection keeping hundreds of requests on
  the wire cannot starve a polite one-at-a-time client: round-robin
  grants bound the polite client's completed share from below;
* **shedding** — past ``max_pending_total`` the server sheds
  oldest-deadline-first with typed ``overloaded`` responses, and the
  per-connection cap turns into socket backpressure, not loss;
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
from repro.serve.net.protocol import ConnectionLostError
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


class TestFairness:
    def test_firehose_cannot_starve_a_polite_client(self):
        # A slow engine makes service the bottleneck; the firehose
        # keeps its whole in-flight window full while the polite client
        # submits one request at a time.  Round-robin grants must keep
        # the polite client's share of completions near 1/2, far above
        # the ~window/(window+1) starvation it would get FIFO.
        async def body():
            stub = StubEngine(delay=0.002)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 4, "max_wait_ms": 1.0},
                max_inflight_per_conn=16,
                # Dispatch slots are the bottleneck: RR grant order —
                # not arrival order — decides who is served next.
                max_dispatch_inflight=4,
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
                # has one request pending when its grant turn comes
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
            assert count(server.metrics, "repro_net_rr_grants_total") == total

        run(body())


class TestSheddingAndBackpressure:
    def test_global_pending_cap_sheds_oldest_deadline_first(self):
        async def body():
            # A paused dispatcher would be ideal; a slow engine plus a
            # tiny global cap is the observable equivalent: pile up
            # more pending than the cap and count typed overloads.
            stub = StubEngine(delay=0.01)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 2, "max_wait_ms": 1.0,
                                 "max_queue": 512},
                max_pending_total=4,
                max_inflight_per_conn=64,
                max_dispatch_inflight=2,
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
                assert shed, "cap of 4 with 48 queued must shed"
                assert served, "shedding must not become total refusal"
                assert count(server.metrics, "repro_net_shed_total") == len(shed)
            finally:
                await server.aclose()
                await server.frontend.aclose()

        run(body())

    def test_soonest_expiry_is_the_shed_victim(self):
        async def body():
            stub = StubEngine(delay=0.05)
            server = await make_server(
                stub,
                frontend_kwargs={"max_batch": 1, "max_wait_ms": 0.5,
                                 "max_queue": 512},
                max_pending_total=3,
                max_inflight_per_conn=64,
                max_dispatch_inflight=1,
            ).start()
            try:
                async with await NetClient.connect(
                    "127.0.0.1", server.port
                ) as client:
                    # Long-budget requests first, then a burst of
                    # short-budget ones: the short budgets must be the
                    # ones shed (oldest-deadline-first), long ones serve.
                    long_futs = [
                        asyncio.ensure_future(client.submit_outcome(
                            "sm", ("long", i), deadline=60.0))
                        for i in range(4)
                    ]
                    await asyncio.sleep(0.03)  # let them queue
                    short = await asyncio.gather(*[
                        client.submit_outcome("sm", ("short", i),
                                              deadline=59.0)
                        for i in range(8)
                    ])
                    longs = await asyncio.gather(*long_futs)
                shed_short = sum(1 for o in short if isinstance(o, Failed)
                                 and o.kind == KIND_OVERLOADED)
                shed_long = sum(1 for o in longs if isinstance(o, Failed)
                                and o.kind == KIND_OVERLOADED)
                assert shed_short > 0
                assert shed_long == 0, (longs, short)
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
            assert count(server.metrics, "repro_net_shed_total") == 0

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
