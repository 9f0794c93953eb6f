"""The fault-tolerance layer: deadlines, retries, pool supervision,
and the circuit breaker (docs/serving.md, "Fault tolerance").

The contracts under test:

* :class:`~repro.serve.resilience.Deadline` is a monotonic budget —
  clock-injectable, coercible from ``None`` / seconds / ``Deadline``,
  and it clamps wait timeouts, never extending them;
* :class:`~repro.serve.resilience.RetryPolicy` backoff schedules are
  **reproducible**: two policies walked with equally-seeded RNGs
  produce identical schedules, and every jittered draw stays inside
  ``[(1-j)·d, (1+j)·d]``;
* :class:`~repro.serve.resilience.TokenBucket` allows a burst of
  ``capacity`` restarts, then denies until tokens trickle back;
* :class:`~repro.serve.resilience.CircuitBreaker` walks
  closed → open → half-open → (closed | open) exactly as documented,
  admitting one probe per cool-down;
* :class:`~repro.serve.resilience.PoolSupervisor` keeps one pool
  resident, grows it for free, charges crash restarts to the bucket,
  and degrades (returns ``None``) when the bucket runs dry;
* the engine honors request deadlines (expired budgets produce typed
  ``deadline`` failures, never late execution), keeps retried chunks
  order-preserving and exactly-once, and fails fast with typed
  ``circuit_open`` envelopes when configured to.

Seeding follows the repo convention: ``PYTEST_SEED`` diversifies,
per-test tags decorrelate.
"""

import os
import random
import time
import zlib

import pytest

from repro.obs import MetricsRegistry
from repro.serve import BatchEngine
from repro.serve.faults import (
    KIND_CIRCUIT_OPEN,
    KIND_DEADLINE,
    CircuitOpen,
    DeadlineExceeded,
    Failed,
    classify_exception,
)
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    POOL_BROKEN,
    POOL_RUNNING,
    POOL_STOPPED,
    _PROBE_TOKEN,
    _pool_health_probe,
    CircuitBreaker,
    Deadline,
    PoolSupervisor,
    RetryPolicy,
    TokenBucket,
)
from tests.metrics_util import count

SEED = int(os.environ.get("PYTEST_SEED", "0xF10C"), 0)


def _rng(tag: str) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


class FakeClock:
    """A hand-cranked monotonic clock: tests never sleep."""

    def __init__(self, t: float = 100.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# -- Deadline -----------------------------------------------------------


class TestDeadline:
    def test_after_and_expiry(self):
        clock = FakeClock()
        d = Deadline.after(5.0, clock=clock)
        assert d.remaining() == pytest.approx(5.0)
        assert not d.expired
        clock.advance(4.999)
        assert not d.expired
        clock.advance(0.002)
        assert d.expired
        assert d.remaining() < 0

    def test_coerce(self):
        assert Deadline.coerce(None) is None
        d = Deadline.after(1.0, clock=FakeClock())
        assert Deadline.coerce(d) is d
        coerced = Deadline.coerce(2.5)
        assert isinstance(coerced, Deadline)
        assert 0 < coerced.remaining() <= 2.5

    def test_clamp_bounds_never_extends(self):
        clock = FakeClock()
        d = Deadline.after(1.0, clock=clock)
        assert d.clamp(10.0) == pytest.approx(1.0)   # budget is tighter
        assert d.clamp(0.25) == pytest.approx(0.25)  # timeout is tighter
        assert d.clamp(None) == pytest.approx(1.0)   # budget replaces infinity
        clock.advance(2.0)
        assert d.clamp(10.0) == 0.0                  # expired: no wait at all


# -- RetryPolicy --------------------------------------------------------


class TestRetryPolicy:
    def test_schedule_reproducible_for_equal_seeds(self):
        policy = RetryPolicy(max_attempts=6)
        first = policy.schedule(_rng("backoff"))
        second = policy.schedule(_rng("backoff"))
        assert first == second
        assert len(first) == 5
        # A different stream gives a different schedule (jitter is real).
        assert first != policy.schedule(_rng("backoff-other"))

    def test_jitter_bounds(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=0.01, multiplier=2.0,
            max_delay=0.5, jitter=0.5,
        )
        rng = _rng("jitter-bounds")
        for i in range(policy.max_attempts - 1):
            nominal = min(0.5, 0.01 * 2.0 ** i)
            for _ in range(50):
                d = policy.backoff(i, rng)
                assert 0.5 * nominal <= d <= 1.5 * nominal

    def test_zero_jitter_is_exact_geometric(self):
        policy = RetryPolicy(
            max_attempts=5, base_delay=0.02, multiplier=2.0,
            max_delay=0.05, jitter=0.0,
        )
        assert policy.schedule(_rng("unused")) == [0.02, 0.04, 0.05, 0.05]

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=0.2, max_delay=0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# -- TokenBucket --------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_deny(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=3, refill_seconds=10.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, refill_seconds=5.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.advance(5.0)  # exactly one token back
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_tokens_capped_at_capacity(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2, refill_seconds=1.0, clock=clock)
        clock.advance(100.0)
        assert bucket.tokens == pytest.approx(2.0)


# -- CircuitBreaker -----------------------------------------------------


class TestCircuitBreaker:
    def _breaker(self, **kw):
        clock = FakeClock()
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("reset_timeout", 30.0)
        breaker = CircuitBreaker(clock=clock, metrics=MetricsRegistry(), **kw)
        return breaker, clock

    def test_stays_closed_under_threshold(self):
        breaker, _ = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_success_resets_the_streak(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED

    def test_trips_open_at_threshold(self):
        breaker, _ = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow()
        assert breaker.trips == 1

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(30.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()        # the probe
        assert not breaker.allow()    # everyone else keeps waiting

    def test_probe_success_closes(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(30.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert breaker.trips == 2
        clock.advance(29.0)
        assert not breaker.allow()
        clock.advance(1.0)
        assert breaker.allow()

    def test_failure_while_open_restarts_cooldown(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock.advance(29.0)
        breaker.record_failure()  # e.g. a degraded batch saw a denied restart
        clock.advance(1.0)
        assert breaker.state == BREAKER_OPEN  # cool-down restarted
        clock.advance(29.0)
        assert breaker.state == BREAKER_HALF_OPEN


# -- PoolSupervisor -----------------------------------------------------


class _FakeFuture:
    def __init__(self, value):
        self._value = value

    def result(self, timeout=None):
        if isinstance(self._value, Exception):
            raise self._value
        return self._value


class _FakePool:
    """Duck-typed ProcessPoolExecutor: runs submissions inline."""

    def __init__(self, healthy: bool = True):
        self.healthy = healthy
        self.shut_down = False

    def submit(self, fn, *args, **kwargs):
        if not self.healthy:
            return _FakeFuture(RuntimeError("worker dead"))
        return _FakeFuture(fn(*args, **kwargs))

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True


class TestPoolSupervisor:
    def _supervisor(self, factory=None, capacity=4):
        clock = FakeClock()
        built = []

        def default_factory(workers):
            pool = _FakePool()
            built.append(pool)
            return pool

        sup = PoolSupervisor(
            factory=factory or default_factory,
            limiter=TokenBucket(capacity=capacity, refill_seconds=1000.0,
                                clock=clock),
            metrics=MetricsRegistry(),
        )
        return sup, built, clock

    def test_ensure_builds_once_and_reuses(self):
        sup, built, _ = self._supervisor()
        pool = sup.ensure(2)
        assert pool is built[0]
        assert sup.state == POOL_RUNNING
        assert sup.ensure(2) is pool
        assert sup.ensure(1) is pool  # shrinking reuses
        assert len(built) == 1

    def test_grow_rebuilds_without_charging_the_bucket(self):
        sup, built, _ = self._supervisor()
        first = sup.ensure(2)
        tokens_before = sup.limiter.tokens
        second = sup.ensure(4)
        assert second is built[1] and second is not first
        assert first.shut_down
        assert sup.size == 4
        assert sup.limiter.tokens == tokens_before  # resize is free
        assert sup.restarts == 0

    def test_health_check_round_trips_the_probe(self):
        sup, built, _ = self._supervisor()
        sup.ensure(1)
        assert sup.health_check()
        assert _pool_health_probe() == _PROBE_TOKEN

    def test_probe_failure_marks_broken(self):
        sup, built, _ = self._supervisor()
        sup.ensure(1)
        built[0].healthy = False
        assert not sup.health_check()
        assert sup.state == POOL_BROKEN

    def test_broken_pool_restart_is_charged(self):
        sup, built, _ = self._supervisor()
        sup.ensure(2)
        sup.mark_broken("crash")
        tokens_before = sup.limiter.tokens
        pool = sup.ensure(2)
        assert pool is built[1]
        assert sup.state == POOL_RUNNING
        assert sup.restarts == 1
        assert sup.limiter.tokens == tokens_before - 1

    def test_denied_restart_degrades(self):
        sup, built, clock = self._supervisor(capacity=1)
        sup.ensure(2)
        sup.mark_broken("crash")
        assert sup.ensure(2) is not None   # burst token spent here
        sup.mark_broken("crash")
        assert sup.ensure(2) is None       # bucket dry: degrade
        assert sup.state == POOL_BROKEN
        assert sup.denied_restarts == 1
        clock.advance(1000.0)              # a token trickles back
        assert sup.ensure(2) is not None
        assert sup.state == POOL_RUNNING

    def test_factory_failure_leaves_broken(self):
        def bad_factory(workers):
            raise OSError("no processes for you")

        sup, _, _ = self._supervisor(factory=bad_factory)
        assert sup.ensure(2) is None
        assert sup.state == POOL_BROKEN

    def test_shutdown_is_graceful_and_rebuildable(self):
        sup, built, _ = self._supervisor()
        sup.ensure(2)
        sup.shutdown()
        assert sup.state == POOL_STOPPED
        assert built[0].shut_down
        sup.shutdown()  # idempotent
        assert sup.ensure(1) is built[1]
        assert sup.state == POOL_RUNNING


# -- fault taxonomy round-trips ----------------------------------------


class TestNewFaultKinds:
    def test_deadline_round_trip(self):
        failed = Failed(kind=KIND_DEADLINE, message="budget spent", index=3)
        exc = failed.to_exception()
        assert isinstance(exc, DeadlineExceeded)
        assert classify_exception(exc) == KIND_DEADLINE

    def test_circuit_open_round_trip(self):
        failed = Failed(kind=KIND_CIRCUIT_OPEN, message="breaker open")
        exc = failed.to_exception()
        assert isinstance(exc, CircuitOpen)
        assert classify_exception(exc) == KIND_CIRCUIT_OPEN


# -- engine wiring ------------------------------------------------------


def _noop_jobs(n):
    return [("fault", ("noop",))] * n


class TestEngineDeadline:
    def _engine(self, **kw):
        kw.setdefault("check_golden", False)
        kw.setdefault("metrics", MetricsRegistry())
        return BatchEngine(**kw)

    def test_expired_budget_fails_typed_not_late(self):
        engine = self._engine()
        result = engine.run_jobs(
            _noop_jobs(4), deadline=Deadline.after(-1.0, clock=FakeClock())
        )
        assert len(result.results) == 4
        for item in result.results:
            assert isinstance(item, Failed) and item.kind == KIND_DEADLINE

    def test_expired_budget_strict_raises(self):
        engine = self._engine()
        with pytest.raises(DeadlineExceeded):
            engine.run_jobs(
                _noop_jobs(2),
                strict=True,
                deadline=Deadline.after(-1.0, clock=FakeClock()),
            )

    def test_ample_budget_changes_nothing(self):
        engine = self._engine()
        result = engine.run_jobs(_noop_jobs(3), deadline=60.0)
        assert result.results == [("fault", "noop")] * 3


class TestEngineCircuitModes:
    def _tripped_breaker(self):
        breaker = CircuitBreaker(
            failure_threshold=1, reset_timeout=10_000.0,
            clock=FakeClock(), metrics=MetricsRegistry(),
        )
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        return breaker

    def test_serial_mode_degrades_but_answers(self):
        engine = BatchEngine(
            check_golden=False, metrics=MetricsRegistry(),
            breaker=self._tripped_breaker(), circuit_mode="serial",
        )
        result = engine.run_jobs(_noop_jobs(4), workers=2, min_chunk=1)
        assert result.results == [("fault", "noop")] * 4
        assert engine.supervisor is None  # never touched the pool

    def test_fail_fast_mode_is_typed_and_instant(self):
        engine = BatchEngine(
            check_golden=False, metrics=MetricsRegistry(),
            breaker=self._tripped_breaker(), circuit_mode="fail_fast",
        )
        result = engine.run_jobs(_noop_jobs(4), workers=2, min_chunk=1)
        assert len(result.results) == 4
        for item in result.results:
            assert isinstance(item, Failed) and item.kind == KIND_CIRCUIT_OPEN

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            BatchEngine(
                check_golden=False, metrics=MetricsRegistry(),
                circuit_mode="explode",
            )


@pytest.mark.slow
class TestEngineRetryIntegration:
    """Real process pools: retried chunks stay ordered and exactly-once."""

    def _engine(self, tag, **kw):
        kw.setdefault("check_golden", False)
        kw.setdefault("metrics", MetricsRegistry())
        kw.setdefault("retry_rng", _rng(tag))
        kw.setdefault(
            "restart_limiter", TokenBucket(capacity=8, refill_seconds=1.0)
        )
        return BatchEngine(**kw)

    def test_killed_chunk_outcomes_order_preserving_exactly_once(self):
        engine = self._engine("kill-order")
        modes = ["noop", "exit", "noop", "noop", "exit", "noop"]
        jobs = [("fault", (m,)) for m in modes]
        try:
            result = engine.run_jobs(jobs, workers=2, min_chunk=1)
        finally:
            engine.close()
        # Exactly one outcome per input, in input order, all recovered.
        assert [r for r in result.results] == [("fault", m) for m in modes]
        assert count(engine.metrics, "repro_serve_chunk_requeues_total") >= 1
        assert count(engine.metrics, "repro_serve_chunk_retries_total") >= 1

    def test_equal_seeds_equal_recovery(self):
        modes = ["exit", "noop", "noop", "exit"]
        jobs = [("fault", (m,)) for m in modes]
        outcomes, retries = [], []
        for _ in range(2):
            engine = self._engine("repro-recovery")
            try:
                result = engine.run_jobs(jobs, workers=2, min_chunk=1)
            finally:
                engine.close()
            outcomes.append(result.results)
            retries.append(
                count(engine.metrics, "repro_serve_chunk_retries_total")
            )
        assert outcomes[0] == outcomes[1] == [("fault", m) for m in modes]
        assert retries[0] == retries[1]

    def test_retries_never_exceed_the_deadline(self):
        # A chunk that dies on every pool attempt, under a small budget:
        # the engine must give up retrying and resolve every slot within
        # the budget plus scheduling epsilon — never sleep past it.
        engine = self._engine(
            "deadline-bound",
            retry_policy=RetryPolicy(
                max_attempts=10, base_delay=0.2, multiplier=2.0,
                max_delay=5.0, jitter=0.0,
            ),
        )
        budget = 1.0
        jobs = [("fault", ("exit",)), ("fault", ("noop",))] * 2
        t0 = time.perf_counter()
        try:
            result = engine.run_jobs(
                jobs, workers=2, min_chunk=1, deadline=budget
            )
        finally:
            engine.close()
        elapsed = time.perf_counter() - t0
        # Every slot resolved exactly once (value or typed failure)...
        assert len(result.results) == len(jobs)
        for item in result.results:
            assert item == ("fault", "exit") or item == ("fault", "noop") or (
                isinstance(item, Failed)
                and item.kind in (KIND_DEADLINE, "internal")
            )
        # ...and the engine stopped spending time once the budget ran
        # out instead of walking the 10-attempt ladder (~25 s of sleep).
        assert elapsed < budget + 2.0
