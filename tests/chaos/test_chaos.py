"""Chaos harness: sabotage the serving stack mid-stream, then prove the
exactly-once resolution contract held (ISSUE 7 acceptance).

One seeded stream of requests — clean traffic, worker kills, hung
workers, poison payloads, and dead-on-arrival deadlines — goes through
the full stack (``Frontend`` → ``BatchEngine`` → supervised resident
pool), and the test asserts what a production operator would demand:

* **exactly once** — every submitted request resolves exactly one
  future exactly one time (resolution attempts are counted, not
  inferred), with an ``Ok`` or a *typed* ``Failed``;
* **no deadlocks** — the whole run completes under a hard timeout;
* **typed failures only** — poison resolves with its own kind, expired
  deadlines resolve ``deadline``, sabotage recovers to values or
  resolves with a transient-fault kind, and nothing surfaces a bare
  exception;
* **recovery** — after injection stops, a clean wave of requests all
  resolve ``Ok`` (spot-checked against the math layer) and the pool
  and breaker report healthy;
* **degradation** — with the restart budget starved, the circuit
  breaker walks closed → open (serial fallback keeps answering) →
  half-open → closed.

Seeding follows the repo convention (``PYTEST_SEED`` diversifies, the
tag decorrelates), and the engine's retry jitter uses the same seeded
RNG, so a failure reproduces under the seed pytest prints.
"""

import asyncio
import os
import random
import time
import zlib
from collections import Counter

import pytest

from repro.curve.encoding import encode_point
from repro.curve.point import AffinePoint
from repro.curve.scalarmult import scalar_mul_fourq
from repro.obs import MetricsRegistry
from repro.serve import BatchEngine, Frontend
from repro.serve import frontend as frontend_mod
from repro.serve.faults import (
    KIND_DEADLINE,
    KIND_DECODING,
    KIND_INTERNAL,
    KIND_SMALL_ORDER,
    KIND_TIMEOUT,
    KIND_WORKER_CRASH,
    Failed,
    Ok,
)
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_OPEN,
    POOL_RUNNING,
    CircuitBreaker,
    RetryPolicy,
    TokenBucket,
)
from tests.metrics_util import counted

SEED = int(os.environ.get("PYTEST_SEED", "0xF10C"), 0)

#: Kinds a sabotaged-or-expired request may legitimately resolve with.
TRANSIENT_KINDS = (KIND_DEADLINE, KIND_TIMEOUT, KIND_WORKER_CRASH, KIND_INTERNAL)

SMALL_ORDER_ENCODING = encode_point(AffinePoint.identity())
GARBAGE_ENCODING = b"\xff" * 32


def _rng(tag: str) -> random.Random:
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


def run(coro, timeout=120):
    """Hard-bounded event loop run: a deadlock fails, never hangs, CI."""
    return asyncio.run(asyncio.wait_for(coro, timeout=timeout))


def _chaos_engine(tag: str, **kw) -> BatchEngine:
    kw.setdefault("check_golden", False)
    kw.setdefault("metrics", MetricsRegistry())
    kw.setdefault("chunk_timeout", 1.0)
    kw.setdefault("retry_rng", _rng(tag))
    kw.setdefault("restart_limiter", TokenBucket(capacity=16, refill_seconds=1.0))
    return BatchEngine(**kw)


@pytest.mark.slow
class TestChaosStream:
    """The acceptance scenario: one stream, every failure mode at once."""

    def test_exactly_once_under_chaos(self, monkeypatch):
        # Count every resolution attempt per pending request, so a
        # double resolve is caught even though futures make it silent.
        attempts = Counter()
        original_resolve = frontend_mod._Pending.resolve

        def counting_resolve(self, outcome):
            attempts[id(self)] += 1
            original_resolve(self, outcome)

        monkeypatch.setattr(frontend_mod._Pending, "resolve", counting_resolve)

        rng = _rng("chaos-stream")
        engine = _chaos_engine("chaos-stream-engine")

        # The seeded stream: kinds shuffled so sabotage interleaves
        # with clean traffic instead of arriving in one burst.
        plan = (
            [("clean", None)] * 14
            + [("kill", None)] * 4
            + [("hang", None)] * 2
            + [("poison", SMALL_ORDER_ENCODING), ("poison", GARBAGE_ENCODING)] * 2
            + [("doa", None)] * 4   # dead-on-arrival deadlines
        )
        rng.shuffle(plan)

        async def driver():
            fe = Frontend(
                engine, metrics=engine.metrics,
                max_batch=8, max_wait_ms=2.0, workers=2, min_chunk=1,
            )
            me_private = rng.randrange(2, 2**250)

            async def client(kind, arg):
                if kind == "clean":
                    return await fe.submit_outcome("fault", ("noop",),
                                                   deadline=60.0)
                if kind == "kill":
                    return await fe.submit_outcome("fault", ("exit",),
                                                   deadline=60.0)
                if kind == "hang":
                    return await fe.submit_outcome("fault", ("sleep", 3.0),
                                                   deadline=60.0)
                if kind == "poison":
                    return await fe.submit_outcome("dh", (me_private, arg),
                                                   deadline=60.0)
                return await fe.submit_outcome("fault", ("noop",),
                                               deadline=0.001)

            outcomes = await asyncio.gather(
                *[client(kind, arg) for kind, arg in plan]
            )

            # Recovery: a clean wave after the sabotage stops, with real
            # scalar multiplications spot-checked against the math layer.
            generator = AffinePoint.generator()
            scalars = [rng.randrange(2**256) for _ in range(4)]
            wave = await asyncio.gather(
                *[fe.submit_outcome("sm", (k, generator)) for k in scalars],
                *[fe.submit_outcome("fault", ("noop",)) for _ in range(6)],
            )
            await fe.aclose()
            return fe, outcomes, wave, scalars

        fe, outcomes, wave, scalars = run(driver())
        engine.close()

        # Exactly once: one outcome per request, one resolution per
        # pending, nothing left dangling.
        assert len(outcomes) == len(plan)
        assert attempts and all(n == 1 for n in attempts.values()), (
            "a request future saw multiple resolution attempts"
        )
        assert fe.queue_depth == 0

        # Typed outcomes only, per injection kind.
        for (kind, arg), outcome in zip(plan, outcomes):
            assert isinstance(outcome, (Ok, Failed)), outcome
            if kind == "clean":
                assert (
                    isinstance(outcome, Ok)
                    and outcome.value == ("fault", "noop")
                ) or (
                    isinstance(outcome, Failed)
                    and outcome.kind in TRANSIENT_KINDS
                ), outcome
            elif kind in ("kill", "hang"):
                # Recovered to the parent's marker value, or typed
                # transient failure — never a bare crash.
                ok_marker = (
                    isinstance(outcome, Ok) and outcome.value[0] == "fault"
                )
                assert ok_marker or (
                    isinstance(outcome, Failed)
                    and outcome.kind in TRANSIENT_KINDS
                ), (kind, outcome)
            elif kind == "poison":
                assert isinstance(outcome, Failed)
                expected = (
                    KIND_SMALL_ORDER
                    if arg == SMALL_ORDER_ENCODING
                    else KIND_DECODING
                )
                assert outcome.kind in (expected, *TRANSIENT_KINDS), outcome
            else:  # dead-on-arrival deadline
                assert isinstance(outcome, Failed) or isinstance(outcome, Ok)
                if isinstance(outcome, Failed):
                    assert outcome.kind == KIND_DEADLINE, outcome

        # The sabotage actually bit (the test is not vacuous).
        kills = sum(1 for kind, _ in plan if kind in ("kill", "hang"))
        assert kills >= 6
        sup = engine.supervisor
        assert sup is not None and sup.restarts >= 1

        # Recovery: the clean wave is all Ok and bit-exact.
        assert all(isinstance(o, Ok) for o in wave), wave
        for k, outcome in zip(scalars, wave[: len(scalars)]):
            ref = scalar_mul_fourq(k, AffinePoint.generator())
            assert (outcome.value.x, outcome.value.y) == (ref.x, ref.y)
        assert engine.breaker.state == BREAKER_CLOSED


@pytest.mark.slow
class TestBreakerDegradation:
    """Starve the restart budget: closed → open → serial → half-open → closed."""

    def test_trip_degrade_recover(self):
        limiter = TokenBucket(capacity=1, refill_seconds=10_000.0)
        breaker = CircuitBreaker(
            failure_threshold=2, reset_timeout=0.2, metrics=MetricsRegistry()
        )
        engine = _chaos_engine(
            "breaker-degrade",
            restart_limiter=limiter,
            breaker=breaker,
            retry_policy=RetryPolicy(max_attempts=1),
        )
        kill = [("fault", ("exit",)), ("fault", ("noop",))] * 2
        clean = [("fault", ("noop",))] * 4
        try:
            # Batch 1: crash recovered by the single restart token.
            r1 = engine.run_jobs(kill, workers=2, min_chunk=1)
            assert len(r1.results) == len(kill)
            assert breaker.state == BREAKER_CLOSED

            # Batches 2 and 3: restarts denied, two consecutive pool
            # failures — the breaker trips open.  Results still resolve
            # (serial parent recovery), the service never goes dark.
            r2 = engine.run_jobs(kill, workers=2, min_chunk=1)
            r3 = engine.run_jobs(kill, workers=2, min_chunk=1)
            for r in (r2, r3):
                assert r.results == [("fault", m) for m, in
                                     [p for _, p in kill]]
            assert breaker.state == BREAKER_OPEN
            assert engine.supervisor.denied_restarts >= 1

            # Open: the pool is not even attempted; serial degrade.
            r4, delta = counted(
                engine.metrics,
                lambda: engine.run_jobs(clean, workers=2, min_chunk=1),
            )
            assert r4.results == [("fault", "noop")] * 4
            assert delta("repro_breaker_short_circuits_total") == 1

            # Refill the restart budget and let the cool-down lapse:
            # the next batch is the half-open probe and closes the
            # breaker by succeeding on a rebuilt pool.
            limiter._tokens = 1.0
            time.sleep(0.25)
            r5 = engine.run_jobs(clean, workers=2, min_chunk=1)
            assert r5.results == [("fault", "noop")] * 4
            assert breaker.state == BREAKER_CLOSED
            assert engine.supervisor.state == POOL_RUNNING
        finally:
            engine.close()
