"""The coalescer's flush contract, abused.

The front door's promises (docs/serving.md, "The asyncio front door"):

* **flush on size** — a flush takes at most ``max_batch`` requests;
* **work-conserving dispatch** — a lane dispatches as soon as it holds a
  request and the one dispatch slot is free, so a lone request never
  waits on a timer, and requests that arrive during a flush leave
  together in the next one;
* **FIFO within a kind** — payloads reach the engine in submission
  order, across flush boundaries;
* **resolve exactly once** — every admitted future resolves exactly
  once, whatever interleaving of arrivals, flushes, and ``aclose()``
  (draining or not) the schedule produces;
* **small flushes stay cheap** — the ``min_chunk`` hint keeps a tiny
  flush off the process pool entirely.

These tests run against a stub engine (instant, recording) so they
exercise the asyncio machinery, not the datapath; the real-engine
integration lives in ``test_frontend_faults.py`` and
``test_differential.py``.  Property-style cases draw their schedules
from ``PYTEST_SEED`` (default pinned): ``PYTEST_SEED=12345 pytest
tests/test_frontend.py`` reproduces a CI failure exactly.
"""

import asyncio
import os
import random
import threading
import time
import zlib
from collections import Counter, deque

import pytest

from repro.curve.point import AffinePoint
from repro.obs import MetricsRegistry, render_report
from repro.serve import (
    BatchEngine,
    BatchResult,
    Failed,
    Frontend,
    FrontendClosed,
    FrontendConfig,
)
from repro.serve.faults import KIND_CANCELLED
from tests.metrics_util import count

SEED = int(os.environ.get("PYTEST_SEED", "0xF10C"), 0)


def _rng(tag: str) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


class StubEngine:
    """Recording engine: echoes payloads, optional synchronous delay.

    Implements exactly the surface the frontend dispatches to
    (``run_jobs``), so these tests pin the coalescer contract without
    paying for the simulated datapath.
    """

    def __init__(self, delay: float = 0.0):
        self.batches = []  # list of (kind, [payloads]) per flush
        self.delay = delay

    def run_jobs(self, jobs, workers=0, dedup=True, strict=False, min_chunk=None):
        kinds = {kind for kind, _ in jobs}
        assert len(kinds) == 1, f"mixed-kind flush: {kinds}"
        self.batches.append((next(iter(kinds)), [p for _, p in jobs]))
        if self.delay:
            time.sleep(self.delay)
        return BatchResult(results=[("echo", p) for _, p in jobs])


class GatedEngine(StubEngine):
    """Stub whose flushes wait for ``gate`` (set from the test)."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()

    def run_jobs(self, jobs, **kwargs):
        self.gate.wait(timeout=30)
        return super().run_jobs(jobs, **kwargs)


def run(coro):
    """Run one async test body (no pytest-asyncio dependency)."""
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def settle(turns: int = 20) -> None:
    """Let the event loop run every ready task a few times over."""
    for _ in range(turns):
        await asyncio.sleep(0)


class TestFlushOnSize:
    def test_full_batch_flushes_immediately(self):
        async def body():
            stub = StubEngine()
            # The rejoin bound is far away: nothing may wait on it.
            async with Frontend(stub, metrics=MetricsRegistry(), max_batch=4,
                                max_wait_ms=10_000.0) as fe:
                t0 = time.perf_counter()
                results = await asyncio.gather(
                    *[fe.submit("sm", i) for i in range(8)]
                )
                elapsed = time.perf_counter() - t0
                assert results == [("echo", i) for i in range(8)]
                # Two full flushes, neither waited for the rejoin bound.
                assert [len(p) for _, p in stub.batches] == [4, 4]
                assert elapsed < 5.0
                flushes = "repro_frontend_flushes_total"
                assert count(fe.metrics, flushes, reason="size") == 2
                assert count(fe.metrics, flushes, reason="idle") == 0
            return fe

        fe = run(body())
        assert count(
            fe.metrics, "repro_frontend_admissions_total", outcome="accepted"
        ) == 8
        assert count(fe.metrics, "repro_frontend_resolved_total", outcome="ok") == 8

    def test_oversized_wave_splits_into_max_batch_flushes(self):
        async def body():
            stub = StubEngine()
            async with Frontend(stub, max_batch=3, max_wait_ms=10_000.0,
                                max_queue=100) as fe:
                await asyncio.gather(*[fe.submit("sm", i) for i in range(10)])
            sizes = [len(p) for _, p in stub.batches]
            assert all(s <= 3 for s in sizes)
            assert sum(sizes) == 10

        run(body())


class TestWorkConservingDispatch:
    def test_lone_request_at_an_idle_door_dispatches_at_once(self):
        async def body():
            stub = StubEngine()
            # The rejoin bound is huge: nothing may wait on it.
            async with Frontend(stub, metrics=MetricsRegistry(), max_batch=64,
                                max_wait_ms=10_000.0) as fe:
                t0 = time.perf_counter()
                result = await fe.submit("sm", 7)
                elapsed = time.perf_counter() - t0
            assert result == ("echo", 7)
            assert elapsed < 1.0
            flushes = "repro_frontend_flushes_total"
            assert count(fe.metrics, flushes) == 1
            assert count(fe.metrics, flushes, reason="idle") == 1
            assert stub.batches == [("sm", [7])]

        run(body())

    def test_arrivals_during_a_flush_leave_in_the_next_one(self):
        async def body():
            stub = GatedEngine()
            async with Frontend(stub, metrics=MetricsRegistry(), max_batch=8,
                                max_wait_ms=10_000.0) as fe:
                first = asyncio.ensure_future(fe.submit("sm", "x0"))
                await settle()  # x0's flush holds the slot at the gate
                names = ["a0", "b0", "a1", "a2", "b1"]
                rest = [asyncio.ensure_future(fe.submit("sm", n, source=n[0]))
                        for n in names]
                await settle()
                stub.gate.set()
                await asyncio.gather(first, *rest)
            # One flush for everything that queued behind x0, one
            # request per source per rotation, FIFO within a source.
            assert stub.batches == [
                ("sm", ["x0"]), ("sm", ["a0", "b0", "a1", "b1", "a2"]),
            ]
            flushes = "repro_frontend_flushes_total"
            assert count(fe.metrics, flushes, reason="idle") == 2

        run(body())

    def test_a_lane_waits_while_another_lanes_flush_holds_the_slot(self):
        async def body():
            stub = GatedEngine()
            # No rejoin hold at all: only the slot can keep d0 waiting.
            async with Frontend(stub, max_batch=8, max_wait_ms=0.0) as fe:
                sm = asyncio.ensure_future(fe.submit("sm", "s0"))
                await settle()  # s0's flush holds the slot at the gate
                dh = [asyncio.ensure_future(fe.submit("dh", "d0"))]
                await settle()  # the dh lane waits for the slot ...
                dh.append(asyncio.ensure_future(fe.submit("dh", "d1")))
                await settle()
                stub.gate.set()
                await asyncio.gather(sm, *dh)
            # ... so d1 still joins d0's flush, after s0's.
            assert stub.batches == [("sm", ["s0"]), ("dh", ["d0", "d1"])]

        run(body())


class TestFIFOWithinKind:
    def test_submission_order_is_flush_order(self):
        """Property: any seeded arrival schedule preserves FIFO per kind."""
        rng = _rng("fifo")

        async def body():
            stub = StubEngine()
            async with Frontend(stub, max_batch=rng.randint(2, 5),
                                max_wait_ms=5.0, max_queue=1000) as fe:
                tasks = []
                for i in range(40):
                    tasks.append(asyncio.ensure_future(fe.submit("sm", i)))
                    # Random pauses force a mix of size and idle
                    # flushes along the way.
                    if rng.random() < 0.3:
                        await asyncio.sleep(rng.random() * 0.01)
                await asyncio.gather(*tasks)
            replayed = [p for _, payloads in stub.batches for p in payloads]
            assert replayed == list(range(40))

        run(body())

    def test_kinds_get_separate_lanes(self):
        async def body():
            stub = StubEngine()
            async with Frontend(stub, max_batch=4, max_wait_ms=10.0) as fe:
                await asyncio.gather(
                    *[fe.submit("sm", ("sm", i)) for i in range(4)],
                    *[fe.submit("fault", ("noop",)) for _ in range(2)],
                )
            by_kind = {}
            for kind, payloads in stub.batches:
                by_kind.setdefault(kind, []).extend(payloads)
            # StubEngine.run_jobs already asserts each flush is
            # single-kind; here we check both lanes saw their items.
            assert by_kind[("sm")] == [("sm", i) for i in range(4)]
            assert len(by_kind["fault"]) == 2

        run(body())

    def test_scalarmult_alias_maps_to_sm(self):
        async def body():
            stub = StubEngine()
            async with Frontend(stub, max_batch=1, max_wait_ms=1.0) as fe:
                await fe.submit("scalarmult", 5)
            assert stub.batches == [("sm", [5])]

        run(body())


class TestSourceFairness:
    def test_each_flush_rotates_over_sources(self):
        """10 queued from A, 2 from B, max_batch=4: B is not starved."""

        async def body():
            stub = StubEngine()
            async with Frontend(stub, max_batch=4, max_wait_ms=10_000.0,
                                max_queue=100) as fe:
                # Every submit is admitted before the coalescer first
                # runs, so the whole queue is present at the first pop.
                tasks = [asyncio.ensure_future(fe.submit("sm", f"a{i}", source="A"))
                         for i in range(10)]
                tasks += [asyncio.ensure_future(fe.submit("sm", f"b{i}", source="B"))
                          for i in range(2)]
                await asyncio.gather(*tasks)
            flushes = [payloads for _, payloads in stub.batches]
            assert flushes[0] == ["a0", "b0", "a1", "b1"]
            replayed = [p for payloads in flushes for p in payloads]
            assert [p for p in replayed if p[0] == "a"] == [f"a{i}" for i in range(10)]
            assert [p for p in replayed if p[0] == "b"] == ["b0", "b1"]
            assert [len(p) for p in flushes] == [4, 4, 4]

        run(body())

    def test_sources_answered_by_a_flush_rejoin_the_next(self):
        """A firehose with a backlog does not fill every other batch.

        Each polite source can send again only after its answers are
        back (one round trip later); the firehose keeps 24 in flight.
        Every polite source keeps at least half its fair share.
        """

        async def body():
            stub = StubEngine(delay=0.01)
            done = {"F": 0, "P0": 0, "P1": 0, "P2": 0}
            stop = asyncio.Event()
            async with Frontend(stub, max_batch=16, max_wait_ms=200.0,
                                max_queue=100) as fe:

                async def client(source, window, rtt):
                    async def worker():
                        while not stop.is_set():
                            await fe.submit("sm", source, source=source)
                            done[source] += 1
                            await asyncio.sleep(rtt)

                    await asyncio.gather(*[worker() for _ in range(window)])

                clients = [asyncio.ensure_future(client("F", 24, 0.0))]
                clients += [asyncio.ensure_future(client(f"P{i}", 3, 0.002))
                            for i in range(3)]
                while len(stub.batches) < 12:
                    await asyncio.sleep(0.01)
                stop.set()
                await asyncio.gather(*clients)
            total = sum(done.values())
            assert min(done.values()) / total >= 0.5 / len(done), done

        run(body())

    def test_rejoin_counts_only_arrivals_after_the_flush(self):
        """A polite source's leftovers never release the hold early.

        P keeps 3 requests outstanding and sends the next one as each
        answer comes back, one at a time; F keeps 12 outstanding.  The
        first flush takes one of P's and the other two queue while it
        runs.  Counting those leftovers toward P's rejoin would release
        the hold at P's first re-send and lock every later batch at
        4 F to 2 P; counting only fresh arrivals gives P its whole
        window, 3 of 6, however the re-sends are spaced.
        """

        async def body():
            stub = GatedEngine()
            fe = Frontend(stub, max_batch=6, max_wait_ms=10_000.0, max_queue=100)
            stop = False

            async def firehose():
                while not stop:
                    await fe.submit("sm", "F", source="F")

            def polite():
                return asyncio.ensure_future(fe.submit("sm", "P", source="P"))

            workers = [asyncio.ensure_future(firehose()) for _ in range(12)]
            window = deque([polite()])
            await settle()  # the first flush takes P and 5 F, held at the gate
            window.extend([polite(), polite()])
            await settle()
            stub.gate.set()
            while len(stub.batches) < 7:
                await window.popleft()
                window.append(polite())
                await settle()
            stop = True
            await fe.aclose()
            await asyncio.gather(*workers, *window)
            mixes = [Counter(payloads) for _, payloads in stub.batches[:7]]
            assert mixes[0] == {"F": 5, "P": 1}
            assert mixes[1:] == [{"F": 3, "P": 3}] * 6, mixes

        run(body())


class TestSourceAwareAdmission:
    """At a full lane the heaviest source waits or loses, never a lighter one."""

    def test_block_grants_freed_space_to_the_lightest_source(self):
        async def body():
            stub = GatedEngine()
            fe = Frontend(stub, max_batch=2, max_wait_ms=10_000.0,
                          max_queue=2, policy="block")
            tasks = [asyncio.ensure_future(fe.submit("sm", f"a{i}", source="A"))
                     for i in range(2)]
            await asyncio.sleep(0.05)  # flush [a0, a1] is held at the gate
            tasks += [asyncio.ensure_future(fe.submit("sm", f"a{i}", source="A"))
                      for i in range(2, 10)]
            await asyncio.sleep(0.02)  # a2, a3 queued; a4..a9 blocked
            tasks.append(asyncio.ensure_future(fe.submit("sm", "b0", source="B")))
            await asyncio.sleep(0.02)
            stub.gate.set()
            await asyncio.gather(*tasks)
            await fe.aclose()
            flushes = [payloads for _, payloads in stub.batches]
            # FIFO admission would hold b0 back until a9 got in.
            assert flushes[:3] == [["a0", "a1"], ["a2", "a3"], ["a4", "b0"]]
            replayed = [p for payloads in flushes for p in payloads]
            assert [p for p in replayed if p[0] == "a"] == [f"a{i}" for i in range(10)]

        run(body())

    def test_shed_evicts_the_heaviest_sources_oldest(self):
        async def body():
            stub = StubEngine()
            fe = Frontend(stub, metrics=MetricsRegistry(), max_batch=100,
                          max_wait_ms=10_000.0, max_queue=4, policy="shed")
            names = ["a0", "a1", "a2", "a3", "b0", "b1", "b2"]
            tasks = [asyncio.ensure_future(fe.submit_outcome(
                "sm", n, source=n[0])) for n in names]
            await asyncio.sleep(0.02)
            await fe.aclose()
            outcomes = dict(zip(names, await asyncio.gather(*tasks)))
            shed = sorted(n for n, o in outcomes.items()
                          if isinstance(o, Failed) and o.kind == "overloaded")
            # b0, b1 each evict A's oldest; at 2-vs-2 b2 evicts B's own.
            assert shed == ["a0", "a1", "b0"]
            assert stub.batches == [("sm", ["a2", "b1", "a3", "b2"])]
            assert count(fe.metrics, "repro_frontend_admissions_total",
                         outcome="shed") == 3

        run(body())

    def test_reject_displaces_the_heaviest_sources_newest(self):
        from repro.serve.faults import Overloaded

        async def body():
            stub = StubEngine()
            fe = Frontend(stub, metrics=MetricsRegistry(), max_batch=100,
                          max_wait_ms=10_000.0, max_queue=4, policy="reject")
            names = ["a0", "a1", "a2", "a3", "b0", "a4", "b1", "b2"]
            tasks = [asyncio.ensure_future(fe.submit_outcome(
                "sm", n, source=n[0])) for n in names]
            await asyncio.sleep(0.02)
            await fe.aclose()
            results = await asyncio.gather(*tasks, return_exceptions=True)
            outcomes = dict(zip(names, results))
            # The heaviest source's own newcomers are refused outright...
            assert isinstance(outcomes["a4"], Overloaded)
            assert isinstance(outcomes["b2"], Overloaded)
            # ...a lighter source's newcomer displaces A's newest instead.
            for n in ("a3", "a2"):
                assert isinstance(outcomes[n], Failed), n
                assert outcomes[n].kind == "overloaded"
            assert stub.batches == [("sm", ["a0", "b0", "a1", "b1"])]
            assert count(fe.metrics, "repro_frontend_admissions_total",
                         outcome="rejected") == 4

        run(body())

    def test_cancelled_submit_withdraws_its_request(self):
        async def body():
            stub = GatedEngine()
            fe = Frontend(stub, metrics=MetricsRegistry(), max_batch=1,
                          max_wait_ms=0.0, max_queue=1, policy="block")
            first = asyncio.ensure_future(fe.submit("sm", "x0"))
            await asyncio.sleep(0.05)  # x0 is in the gated flush
            queued = asyncio.ensure_future(fe.submit("sm", "x1"))
            blocked = asyncio.ensure_future(fe.submit("sm", "x2"))
            last = asyncio.ensure_future(fe.submit("sm", "x3"))
            await asyncio.sleep(0.02)
            blocked.cancel()  # waiting at the full lane: never admitted
            queued.cancel()   # waiting in the lane: withdrawn, x3 admitted
            await asyncio.sleep(0.02)
            stub.gate.set()
            assert await first == ("echo", "x0")
            assert await last == ("echo", "x3")
            await fe.aclose()
            assert [p for _, (p,) in stub.batches] == ["x0", "x3"]
            assert count(fe.metrics, "repro_frontend_resolved_total",
                         outcome="cancelled") == 1

        run(body())


class TestResolveExactlyOnce:
    def test_every_future_resolves_once_under_mid_stream_aclose(self):
        """Property: random schedules + aclose() mid-stream lose nothing.

        Each seeded round submits a random number of requests, closes
        the front door somewhere in the middle of the stream (draining
        or abandoning at random), and requires every admitted future to
        resolve exactly once — a value or a typed failure, never a hang
        and never a double resolution.
        """
        rng = _rng("resolve-once")

        async def one_round(round_no: int):
            stub = StubEngine(delay=0.001)
            drain = rng.random() < 0.5
            fe = Frontend(
                stub,
                metrics=MetricsRegistry(),
                max_batch=rng.randint(1, 6),
                max_wait_ms=rng.choice([0.0, 2.0, 50.0]),
                max_queue=1000,
            )
            n = rng.randint(3, 25)
            tasks = [
                asyncio.ensure_future(fe.submit_outcome("sm", (round_no, i)))
                for i in range(n)
            ]
            # Yield a random number of times so the coalescer makes
            # partial progress before the close lands mid-stream.
            for _ in range(rng.randint(0, 10)):
                await asyncio.sleep(0)
            await fe.aclose(drain=drain)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            assert len(outcomes) == n
            admitted = int(count(
                fe.metrics, "repro_frontend_admissions_total", outcome="accepted"
            ))
            for i, outcome in enumerate(outcomes):
                if isinstance(outcome, FrontendClosed):
                    # The close beat this submission to the door: it was
                    # never admitted, so refusing it is the contract.
                    assert i >= admitted
                elif isinstance(outcome, Failed):
                    assert not drain, "draining close must resolve with values"
                    assert outcome.kind == KIND_CANCELLED
                else:
                    assert not isinstance(outcome, BaseException), outcome
                    assert outcome.value == ("echo", (round_no, i))
            # Tasks run in creation order and admission is synchronous,
            # so the admitted set is exactly the first `admitted` items.
            if drain:
                flushed = [p for _, payloads in stub.batches for p in payloads]
                assert flushed == [(round_no, i) for i in range(admitted)]
            # Closed for business afterwards.
            with pytest.raises(FrontendClosed):
                await fe.submit("sm", 1)

        async def body():
            for round_no in range(8):
                await one_round(round_no)

        run(body())

    def test_submit_after_aclose_raises(self):
        async def body():
            fe = Frontend(StubEngine())
            await fe.aclose()
            with pytest.raises(FrontendClosed):
                await fe.submit("sm", 1)

        run(body())

    def test_unknown_kind_rejected_before_admission(self):
        async def body():
            fe = Frontend(StubEngine(), metrics=MetricsRegistry())
            with pytest.raises(ValueError, match="unknown job kind"):
                await fe.submit("keygen", 1)
            await fe.aclose()
            assert count(fe.metrics, "repro_frontend_admissions_total") == 0

        run(body())


class TestConfigValidation:
    def test_bad_knobs_raise(self):
        with pytest.raises(ValueError):
            FrontendConfig(max_batch=0)
        with pytest.raises(ValueError):
            FrontendConfig(max_wait_ms=-1)
        with pytest.raises(ValueError):
            FrontendConfig(max_queue=0)
        with pytest.raises(ValueError):
            FrontendConfig(policy="fifo")

    def test_overrides_through_frontend_kwargs(self):
        fe = Frontend(StubEngine(), max_batch=7, policy="shed")
        assert fe.config.max_batch == 7
        assert fe.config.policy == "shed"


class TestFrontendMetrics:
    def test_registry_records_the_serving_picture(self):
        registry = MetricsRegistry()

        async def body():
            stub = StubEngine()
            async with Frontend(stub, metrics=registry, max_batch=4,
                                max_wait_ms=10.0) as fe:
                await asyncio.gather(*[fe.submit("sm", i) for i in range(8)])

        run(body())
        assert registry.value(
            "repro_frontend_admissions_total", kind="sm", outcome="accepted"
        ) == 8
        assert registry.value(
            "repro_frontend_flushes_total", kind="sm", reason="size"
        ) == 2
        batch_hist = registry.histogram("repro_frontend_batch_size", kind="sm")
        assert batch_hist.count == 2 and batch_hist.sum == 8
        e2e = registry.histogram("repro_frontend_e2e_latency_seconds", kind="sm")
        assert e2e.count == 8
        # The snapshot round-trips through the schema gate.
        from repro.obs import validate_export

        assert validate_export(registry.snapshot()) == []
        assert (
            'repro_frontend_flushes_total{kind="sm",reason="size"} 2'
            in render_report(registry.snapshot())
        )


class TestWorkersHint:
    """The min_chunk fix: small flushes never pay pool fan-out."""

    def test_plan_workers_math(self):
        plan = BatchEngine.plan_workers
        # Historical behaviour without a hint.
        assert plan(64, 4, None) == 4
        assert plan(1, 8, None) == 0
        assert plan(10, 0, None) == 0
        assert plan(10, 1, None) == 0
        # The hint floors per-worker chunks.
        assert plan(64, 4, 8) == 4
        assert plan(16, 4, 8) == 2
        assert plan(7, 4, 8) == 0
        assert plan(8, 4, 8) == 1  # one worker's worth -> serial path
        assert plan(2, 8, 1) == 8

    def test_one_item_flush_never_spawns_the_pool(self, monkeypatch):
        """Regression: a 1-item flush must take the serial path even
        when the frontend asks for aggressive fan-out."""
        engine = BatchEngine()

        def boom(*a, **k):  # pragma: no cover - the assertion IS the test
            raise AssertionError("process pool spawned for a tiny flush")

        monkeypatch.setattr(engine, "_run_parallel", boom)
        # Degenerate scalars skip the flow, so this stays instant.
        result = engine.run_jobs(
            [("sm", (0, AffinePoint.generator()))], workers=8, min_chunk=4
        )
        assert engine.supervisor is None
        assert len(result) == 1

    def test_small_flush_degrades_to_serial_under_min_chunk(self, monkeypatch):
        engine = BatchEngine()
        monkeypatch.setattr(
            engine, "_run_parallel",
            lambda *a, **k: (_ for _ in ()).throw(AssertionError("pool")),
        )
        jobs = [("sm", (0, AffinePoint.generator()))] * 3
        # Three jobs, chunk floor four: serial even with workers=2.
        result = engine.run_jobs(jobs, workers=2, min_chunk=4)
        assert engine.supervisor is None and len(result) == 3
        # Entry-point wrappers forward the hint too.
        batch = engine.batch_scalarmult([0, 0], workers=2, min_chunk=4)
        assert engine.supervisor is None and len(batch) == 2

    def test_frontend_dispatch_honours_min_chunk(self):
        """The frontend's engine calls carry its configured hint."""
        seen = {}

        class SpyEngine(StubEngine):
            def run_jobs(self, jobs, workers=0, dedup=True, strict=False,
                         min_chunk=None):
                seen.update(workers=workers, min_chunk=min_chunk)
                return super().run_jobs(jobs, workers=workers, dedup=dedup,
                                        strict=strict, min_chunk=min_chunk)

        async def body():
            async with Frontend(SpyEngine(), max_batch=2, max_wait_ms=1.0,
                                workers=2, min_chunk=4) as fe:
                await fe.submit("sm", 1)

        run(body())
        assert seen == {"workers": 2, "min_chunk": 4}


class TestDeadlines:
    """End-to-end deadlines: expired requests resolve typed, never late."""

    def test_expired_while_queued_resolves_typed_and_early(self):
        from repro.serve.faults import KIND_DEADLINE

        async def body():
            stub = GatedEngine()
            async with Frontend(stub, metrics=MetricsRegistry(), max_batch=64,
                                max_wait_ms=10_000.0) as fe:
                held = asyncio.ensure_future(fe.submit("sm", "held"))
                await settle()  # "held" holds the slot at the gate
                t0 = time.perf_counter()
                outcome = await fe.submit_outcome("sm", 7, deadline=0.02)
                elapsed = time.perf_counter() - t0
                stub.gate.set()
                await held
            assert isinstance(outcome, Failed)
            assert outcome.kind == KIND_DEADLINE
            # Resolved at expiry, not when the 30 s gate lets the slot go.
            assert elapsed < 5.0
            # The request never dispatched.
            assert stub.batches == [("sm", ["held"])]
            assert count(fe.metrics, "repro_deadline_expired_total",
                         stage="queued") == 1
            assert count(fe.metrics, "repro_frontend_admissions_total",
                         outcome="accepted") == 2

        run(body())

    def test_submit_raises_deadline_exceeded(self):
        from repro.serve.faults import DeadlineExceeded

        async def body():
            stub = GatedEngine()
            async with Frontend(stub, max_batch=64,
                                max_wait_ms=10_000.0) as fe:
                held = asyncio.ensure_future(fe.submit("sm", "held"))
                await settle()  # "held" holds the slot at the gate
                with pytest.raises(DeadlineExceeded):
                    await fe.submit("sm", 7, deadline=0.02)
                stub.gate.set()
                await held

        run(body())

    def test_budget_forwarded_only_when_every_member_is_bounded(self):
        from repro.serve.resilience import Deadline

        calls = []

        class SpyEngine(StubEngine):
            def run_jobs(self, jobs, workers=0, dedup=True, strict=False,
                         min_chunk=None, deadline=None):
                calls.append(deadline)
                return super().run_jobs(jobs, workers=workers, dedup=dedup,
                                        strict=strict, min_chunk=min_chunk)

        async def body():
            async with Frontend(SpyEngine(), max_batch=2,
                                max_wait_ms=1.0) as fe:
                # Both bounded: the engine receives the largest budget.
                await asyncio.gather(
                    fe.submit("sm", 1, deadline=30.0),
                    fe.submit("sm", 2, deadline=60.0),
                )
                # Mixed: one caller is unbounded, so the batch is too.
                await asyncio.gather(
                    fe.submit("sm", 3, deadline=30.0),
                    fe.submit("sm", 4),
                )

        run(body())
        assert len(calls) == 2
        bounded, mixed = calls
        assert isinstance(bounded, Deadline)
        assert 50.0 < bounded.remaining() <= 60.0
        assert mixed is None

    def test_default_deadline_from_config(self):
        from repro.serve.faults import KIND_DEADLINE

        async def body():
            stub = GatedEngine()
            async with Frontend(stub, max_batch=64,
                                max_wait_ms=10_000.0,
                                default_deadline_ms=20.0) as fe:
                held = asyncio.ensure_future(fe.submit_outcome("sm", "held"))
                await settle()  # "held" holds the slot at the gate
                outcome = await fe.submit_outcome("sm", 1)
                stub.gate.set()
                await held
            assert isinstance(outcome, Failed)
            assert outcome.kind == KIND_DEADLINE

        run(body())

    def test_blocked_submitter_honours_its_deadline(self):
        from repro.serve.faults import KIND_DEADLINE

        async def body():
            stub = StubEngine(delay=0.2)
            fe = Frontend(stub, max_batch=1, max_wait_ms=0.0, max_queue=1,
                          policy="block")
            fillers = [
                asyncio.ensure_future(fe.submit_outcome("sm", i))
                for i in range(3)
            ]
            await asyncio.sleep(0.01)
            t0 = time.perf_counter()
            blocked = await fe.submit_outcome("sm", 99, deadline=0.05)
            elapsed = time.perf_counter() - t0
            assert isinstance(blocked, Failed)
            assert blocked.kind == KIND_DEADLINE
            assert elapsed < 5.0
            await asyncio.gather(*fillers)
            await fe.aclose()
            # The blocked request never entered the queue.
            assert all(99 not in payloads for _, payloads in stub.batches)

        run(body())

    def test_admission_timeout_bounds_block_and_raises(self):
        from repro.serve.faults import Overloaded

        async def body():
            stub = StubEngine(delay=0.2)
            fe = Frontend(stub, metrics=MetricsRegistry(), max_batch=1,
                          max_wait_ms=0.0, max_queue=1,
                          policy="block", admission_timeout_ms=50.0)
            fillers = [
                asyncio.ensure_future(fe.submit_outcome("sm", i))
                for i in range(2)
            ]
            await asyncio.sleep(0.01)
            with pytest.raises(Overloaded):
                await fe.submit_outcome("sm", 99)
            await asyncio.gather(*fillers, return_exceptions=True)
            await fe.aclose()
            assert count(fe.metrics, "repro_frontend_admissions_total",
                         outcome="rejected") >= 1

        run(body())

    def test_new_knobs_validated(self):
        with pytest.raises(ValueError):
            FrontendConfig(default_deadline_ms=0)
        with pytest.raises(ValueError):
            FrontendConfig(admission_timeout_ms=-5)

    def test_per_call_deadline_validated(self):
        async def body():
            async with Frontend(StubEngine()) as fe:
                with pytest.raises(ValueError):
                    await fe.submit("sm", 1, deadline=-1.0)

        run(body())
