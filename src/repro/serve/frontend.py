"""Asyncio front door: continuous batching over the batch engine.

The paper's throughput numbers assume the datapath is handed full
batches; real traffic is a stream of individual requests arriving at
random times.  This module closes that gap the way serving systems for
any fixed-function accelerator do — **continuous batching**: requests
enter one at a time through :meth:`Frontend.submit`, land in a per-kind
queue, and a coalescer flushes a batch to the existing fault-isolated
:class:`~repro.serve.engine.BatchEngine`.

Dispatch is **work-conserving**: the engine shares one simulator, so
every lane's coalescer waits for one dispatch slot, and a lane
dispatches the moment it holds a request and the slot is free.  It
takes up to ``max_batch`` requests (a full batch flushes with reason
``size``, a partial one with ``idle``).  Requests that arrive while a
flush runs queue up and leave together in the next flush, which is how
batches form under load; no timer ever delays a dispatch, so a lone
request at an idle door pays no linger.  The engine call runs in an
executor thread so the event loop never blocks; each caller's future
is resolved from the engine's typed per-item
:class:`~repro.serve.faults.Ok` / :class:`~repro.serve.faults.Failed`
outcomes, so one poisoned request rejects exactly one caller and a
worker-chunk crash or timeout is recovered by the engine before the
front door ever sees it.

Fairness is per ``source``.  A caller may tag its request with a
``source`` key (the TCP server passes the connection id); when a flush
pops a batch, it takes one request per source per rotation, sources
rotating in the order of their oldest queued request, FIFO within each
source.  After a flush that served several sources, a full next batch
waits up to ``max_wait_ms`` for each of them to send as many requests
again, counting only requests admitted after the flush ended, so a
source that can send only once answered is not skipped for one that
keeps a backlog.  Admission at a full lane is source-aware too
(below), so a firehose source cannot crowd a polite one out of the
lane or a batch.
With a single source (every in-process caller by default) both reduce
to plain FIFO.  A caller that cancels its submit withdraws the request:
it never runs unless a flush has already taken it.

Admission control is explicit.  Every kind's queue is bounded
(``max_queue``); when it is full the configured policy decides:

* ``"block"``  — the submitter awaits until the coalescer drains space
  (backpressure propagates to the producer, nothing is lost); freed
  space goes to the blocked source with the fewest queued requests;
* ``"reject"`` — :meth:`Frontend.submit` raises the typed
  :class:`~repro.serve.faults.Overloaded` error immediately
  (:meth:`Frontend.submit_outcome` returns the equivalent ``Failed``
  envelope instead of raising) — unless a lighter source is knocking,
  which displaces the heaviest source's newest request instead;
* ``"shed"``   — the *oldest* request of the heaviest source (most
  queued requests) is resolved with an ``overloaded`` failure and the
  new one is admitted (freshest-first under overload).

Deadlines are end-to-end.  ``submit(kind, payload, deadline=seconds)``
(or a config-wide ``default_deadline_ms``) bounds queue-to-result time:
a request that expires while still queued (waiting for the slot
included) resolves at its deadline with a typed
``Failed(KIND_DEADLINE)`` and **never dispatches**; a request blocked
at admission under the ``block`` policy gives up when its deadline (or
the separate ``admission_timeout_ms``) runs out instead of waiting
forever; and a flush whose members all carry deadlines hands the engine
the largest remaining budget, so retries and chunk waits downstream
never outlive the callers either.

:meth:`Frontend.aclose` drains gracefully: admission closes, every
already-queued request is flushed and resolved, then the coalescers and
the dispatch executor shut down.  ``aclose(drain=False)`` abandons the
queue instead, resolving each pending future with a ``cancelled``
failure — either way **every admitted future resolves exactly once**.

Everything observable is recorded into :mod:`repro.obs`:
``repro_frontend_queue_depth`` (per-kind gauge, ``mode="max"`` high
water), ``repro_frontend_batch_size`` / ``repro_frontend_flush_wait_seconds``
histograms, ``repro_frontend_e2e_latency_seconds`` per-request
end-to-end latency, ``repro_frontend_admissions_total``,
``repro_frontend_flushes_total`` and ``repro_frontend_resolved_total``
counters.  Pass a registry of your own (``metrics=``) to read one
front door's figures in isolation.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import zip_longest
from typing import Any, Deque, Dict, Hashable, List, Optional, Tuple

from ..obs import MetricsRegistry, get_registry
from .engine import BatchEngine, default_engine, job_kind
from .faults import (
    KIND_CANCELLED,
    KIND_DEADLINE,
    KIND_OVERLOADED,
    Failed,
    Overloaded,
    classify_exception,
)
from .resilience import Deadline

__all__ = [
    "Frontend",
    "FrontendClosed",
    "FrontendConfig",
]

_POLICIES = ("block", "reject", "shed")

#: Flush-reason label values of ``repro_frontend_flushes_total``.
FLUSH_SIZE = "size"
FLUSH_IDLE = "idle"
FLUSH_DRAIN = "drain"


class FrontendClosed(RuntimeError):
    """Submission after :meth:`Frontend.aclose` began (permanent)."""


@dataclass(frozen=True)
class FrontendConfig:
    """Tuning knobs of the coalescer and admission controller.

    Attributes:
        max_batch: the most requests one flush takes.  A lane flushes
            whatever it holds, up to this, as soon as the dispatch slot
            is free; it never waits for a batch to fill.
        max_wait_ms: bounds the rejoin hold: after a flush that served
            several sources, how long a full next batch may wait for
            them to send again (see module docstring).  It never delays
            a dispatch otherwise.
        max_queue: per-kind admission bound; beyond it ``policy``
            applies.
        policy: ``"block"`` / ``"reject"`` / ``"shed"`` (see module
            docstring).
        workers: engine fan-out per flush (0 = serial in-process).
        min_chunk: chunking hint forwarded to the engine — a flush
            smaller than ``min_chunk`` per worker degrades to fewer
            workers or the serial path instead of paying pool fan-out.
        dedup: forwarded to the engine (repeated identical requests in
            one flush are computed once).
        default_deadline_ms: end-to-end deadline applied to every
            submission that does not pass its own ``deadline=``
            (``None`` = unbounded, the historical behaviour).
        admission_timeout_ms: how long a submitter may stay blocked at
            a full queue under the ``block`` policy before the front
            door gives up with :class:`~repro.serve.faults.Overloaded`
            (``None`` = bounded only by the request's own deadline).
    """

    max_batch: int = 32
    max_wait_ms: float = 2.0
    max_queue: int = 256
    policy: str = "block"
    workers: int = 0
    min_chunk: int = 4
    dedup: bool = True
    default_deadline_ms: Optional[float] = None
    admission_timeout_ms: Optional[float] = None

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}")
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be > 0 (or None)")
        if self.admission_timeout_ms is not None and self.admission_timeout_ms <= 0:
            raise ValueError("admission_timeout_ms must be > 0 (or None)")


@dataclass
class _Pending:
    """One admitted request waiting in a lane."""

    kind: str
    payload: Any
    future: "asyncio.Future[Any]"
    enqueued_at: float
    #: Absolute ``time.perf_counter()`` expiry, or None for unbounded.
    expires_at: Optional[float] = None
    #: Fairness key: batches rotate over sources (None is one source).
    source: Hashable = None
    #: Fires :meth:`Frontend._expire` at ``expires_at`` while queued.
    timer: Optional[asyncio.TimerHandle] = None

    def resolve(self, outcome: Any) -> None:
        """Resolve the caller's future exactly once (idempotent)."""
        if not self.future.done():
            self.future.set_result(outcome)


class _Lane:
    """Per-kind queue + the coalescer state that drains it."""

    __slots__ = ("kind", "queue", "arrival", "blocked", "task")

    def __init__(self, kind: str):
        self.kind = kind
        self.queue: Deque[_Pending] = deque()
        #: Set on every admission; the coalescer clears and re-awaits.
        self.arrival = asyncio.Event()
        #: Per source, (request, grant) pairs blocked at the full lane;
        #: the grant resolves True on admission, False on shutdown.
        self.blocked: Dict[Hashable, Deque[Tuple[_Pending, asyncio.Future]]] = {}
        self.task: Optional[asyncio.Task] = None


class Frontend:
    """The asyncio front door: submit one request, share a batch.

    Construct inside a running event loop (lanes are created lazily on
    first submit, so construction itself is loop-free), submit with::

        frontend = Frontend(engine, max_batch=32, max_wait_ms=2.0)
        secret = await frontend.submit("dh", (private, peer_public))
        ...
        await frontend.aclose()       # graceful drain

    or as an async context manager (``async with Frontend(...) as fe:``).

    :meth:`submit` returns the raw per-item value (point / digest /
    verdict) and raises the re-materialized exception if the engine
    isolated the request as :class:`~repro.serve.faults.Failed`;
    :meth:`submit_outcome` never raises for per-item failures and
    returns the typed ``Ok``/``Failed`` envelope instead.
    """

    def __init__(
        self,
        engine: Optional[BatchEngine] = None,
        config: Optional[FrontendConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        **overrides: Any,
    ):
        self.engine = engine if engine is not None else default_engine()
        self.config = replace(config or FrontendConfig(), **overrides)
        self.metrics = metrics if metrics is not None else get_registry()
        self._lanes: Dict[str, _Lane] = {}
        self._closed = False
        self._draining = False
        # One dispatch slot: the engine shares a single simulator, so
        # every lane waits for the slot and flushes (across kinds)
        # never overlap; the executor's one thread only runs them.
        # Made with the first lane, inside the running loop.
        self._slot: Optional[asyncio.Lock] = None
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- submission ----------------------------------------------------
    async def submit(
        self, kind: str, payload: Any, deadline: Optional[float] = None, source: Hashable = None
    ) -> Any:
        """Submit one request; return its value or raise its failure.

        ``deadline`` is an end-to-end budget in seconds (defaulting to
        the config's ``default_deadline_ms``): if it expires while the
        request is queued or blocked at admission, the request never
        executes and this raises
        :class:`~repro.serve.faults.DeadlineExceeded`.  ``source`` is
        the fairness key: batches take one request per source per
        rotation (see module docstring).

        Raises :class:`~repro.serve.faults.Overloaded` when the
        ``reject`` policy refuses admission (or a queued request is
        shed / abandoned), :class:`FrontendClosed` after
        :meth:`aclose`, and the re-materialized per-item exception
        (``SmallOrderPoint``, ``DecodingError``, ...) when the engine
        isolated this request as failed.
        """
        outcome = await self.submit_outcome(kind, payload, deadline=deadline, source=source)
        if isinstance(outcome, Failed):
            raise outcome.to_exception()
        return outcome.value

    async def submit_outcome(
        self, kind: str, payload: Any, deadline: Optional[float] = None, source: Hashable = None
    ) -> Any:
        """Like :meth:`submit` but returns the ``Ok``/``Failed`` envelope.

        Only admission-time conditions raise (:class:`FrontendClosed`,
        a bad ``kind``, :class:`~repro.serve.faults.Overloaded` under
        the ``reject`` policy or an admission timeout); execution
        outcomes — including shed, drain-cancelled, and
        deadline-expired requests — come back as envelopes.
        """
        kind = job_kind(kind).name
        if self._closed:
            raise FrontendClosed("frontend is closed to new submissions")
        if deadline is None and self.config.default_deadline_ms is not None:
            deadline = self.config.default_deadline_ms / 1000.0
        if deadline is not None and deadline <= 0:
            raise ValueError("deadline must be > 0 seconds (or None)")
        now = time.perf_counter()
        loop = asyncio.get_running_loop()
        pending = _Pending(
            kind=kind,
            payload=payload,
            future=loop.create_future(),
            enqueued_at=now,
            expires_at=None if deadline is None else now + deadline,
            source=source,
        )
        lane = self._lane(kind)
        try:
            await self._admit(lane, pending)
            outcome = await pending.future
        except asyncio.CancelledError:
            self._withdraw(lane, pending)
            raise
        elapsed = time.perf_counter() - pending.enqueued_at
        self.metrics.histogram(
            "repro_frontend_e2e_latency_seconds", kind=kind
        ).observe(elapsed)
        return outcome

    async def _admit(self, lane: _Lane, pending: _Pending) -> None:
        """Queue ``pending``, or apply the policy when its lane is full.

        At a full lane the request that waits or goes belongs to the
        heaviest source (most queued; the newcomer's own on a tie).
        """
        cfg, m = self.config, self.metrics
        if len(lane.queue) >= cfg.max_queue and cfg.policy == "block":
            await self._await_grant(lane, pending)
            return
        if len(lane.queue) >= cfg.max_queue:
            counts = Counter(p.source for p in lane.queue)
            heaviest = max(counts, key=counts.__getitem__)
            if counts[pending.source] >= counts[heaviest]:
                heaviest = pending.source
            if cfg.policy == "reject" and heaviest == pending.source:
                m.counter("repro_frontend_admissions_total",
                          kind=lane.kind, outcome="rejected").inc()
                raise Overloaded(f"{lane.kind} queue full ({cfg.max_queue}); request rejected")
            victims = [p for p in lane.queue if p.source == heaviest]
            if cfg.policy == "reject":
                # A lighter source is knocking: the heaviest's newest goes.
                victim, outcome, why = victims[-1], "rejected", "by a lighter source"
            else:
                victim, outcome, why = victims[0], "shed", "by a newer arrival"
            _remove(lane.queue, victim)
            victim.resolve(Failed(
                kind=KIND_OVERLOADED,
                message=f"{outcome} from the full {lane.kind} queue {why}",
                latency=time.perf_counter() - victim.enqueued_at,
            ))
            m.counter("repro_frontend_admissions_total", kind=lane.kind, outcome=outcome).inc()
        self._enqueue(lane, pending)

    def _enqueue(self, lane: _Lane, pending: _Pending) -> None:
        lane.queue.append(pending)
        m = self.metrics
        m.counter("repro_frontend_admissions_total", kind=lane.kind, outcome="accepted").inc()
        m.gauge("repro_frontend_queue_depth", mode="max", kind=lane.kind).set(len(lane.queue))
        if pending.expires_at is not None:
            pending.timer = asyncio.get_running_loop().call_later(
                pending.expires_at - time.perf_counter(), self._expire, lane, pending
            )
        lane.arrival.set()

    async def _await_grant(self, lane: _Lane, pending: _Pending) -> None:
        """Full lane under ``block``: wait for :meth:`_grant_space`.

        The wait is bounded by the request's own deadline and the
        config's admission timeout, whichever is sooner.
        """
        cfg, m = self.config, self.metrics
        bounds = [] if pending.expires_at is None else [pending.expires_at]
        if cfg.admission_timeout_ms is not None:
            bounds.append(pending.enqueued_at + cfg.admission_timeout_ms / 1000.0)
        grant = asyncio.get_running_loop().create_future()
        lane.blocked.setdefault(pending.source, deque()).append((pending, grant))
        while not grant.done():
            now = time.perf_counter()
            if bounds and now >= min(bounds):
                break
            await asyncio.wait((grant,), timeout=min(bounds) - now if bounds else None)
        if grant.done() and grant.result():
            return  # admitted: _grant_space queued it
        self._withdraw(lane, pending)
        now = time.perf_counter()
        if not grant.done() and pending.expires_at is not None and now >= pending.expires_at:
            # The caller's budget ran out at the door: a typed
            # envelope, never an execution.
            m.counter("repro_deadline_expired_total", stage="admission").inc()
            m.counter("repro_frontend_admissions_total",
                      kind=lane.kind, outcome="deadline").inc()
            pending.resolve(Failed(
                kind=KIND_DEADLINE,
                message=f"deadline expired while blocked at the full {lane.kind} queue",
                latency=now - pending.enqueued_at,
            ))
            return
        # Refused by shutdown (never admitted, so resolve-exactly-once
        # holds) or by the admission timeout.
        m.counter("repro_frontend_admissions_total", kind=lane.kind, outcome="rejected").inc()
        raise Overloaded(
            f"{lane.kind} queue still full at shutdown; blocked request refused"
            if grant.done() else f"{lane.kind} queue still full after "
            f"{cfg.admission_timeout_ms:g} ms admission timeout"
        )

    def _grant_space(self, lane: _Lane) -> None:
        """Hand freed queue space to blocked submitters.

        Each slot goes to the blocked source holding the fewest queued
        requests (ties: the source that blocked first), FIFO within a
        source, so a firehose blocked at a full lane cannot keep a
        polite source out of it.
        """
        counts = Counter(p.source for p in lane.queue) if lane.blocked else None
        while lane.blocked and len(lane.queue) < self.config.max_queue:
            source = min(lane.blocked, key=counts.__getitem__)
            waiters = lane.blocked[source]
            pending, grant = waiters.popleft()
            if not waiters:
                del lane.blocked[source]
            counts[source] += 1
            self._enqueue(lane, pending)
            grant.set_result(True)

    def _withdraw(self, lane: _Lane, pending: _Pending) -> None:
        """Take a request whose caller gave up out of its lane.

        A cancelled submit (a TCP peer gone, a server drain out of
        time) leaves no work behind; only a request a flush has
        already taken still runs.
        """
        waiters = lane.blocked.get(pending.source)
        if waiters is not None and _remove(waiters, pending, key=lambda w: w[0]):
            if not waiters:
                del lane.blocked[pending.source]
        elif _remove(lane.queue, pending):
            self.metrics.counter(
                "repro_frontend_resolved_total", kind=lane.kind, outcome="cancelled"
            ).inc()
            self._grant_space(lane)

    def _lane(self, kind: str) -> _Lane:
        lane = self._lanes.get(kind)
        if lane is None:
            if self._slot is None:
                self._slot = asyncio.Lock()
            lane = self._lanes[kind] = _Lane(kind)
            lane.task = asyncio.get_running_loop().create_task(
                self._coalesce(lane), name=f"repro-frontend-{kind}"
            )
        return lane

    # -- the coalescer -------------------------------------------------
    async def _coalesce(self, lane: _Lane) -> None:
        """Drain one lane forever: wait for work and the slot, flush."""
        cfg = self.config
        while True:
            # Sleep until the lane has at least one request (or drain).
            while not lane.queue:
                if self._draining:
                    return
                lane.arrival.clear()
                await lane.arrival.wait()
            async with self._slot:
                # A request whose deadline timer is due but has not run
                # yet must not ride into the dispatch either.
                now = time.perf_counter()
                for pending in [p for p in lane.queue
                                if p.expires_at is not None and now >= p.expires_at]:
                    self._expire(lane, pending)
                if not lane.queue:
                    continue
                if len(lane.queue) >= cfg.max_batch:
                    reason = FLUSH_SIZE
                elif self._draining:
                    reason = FLUSH_DRAIN
                else:
                    reason = FLUSH_IDLE
                batch = _take_batch(lane.queue, cfg.max_batch)
                for pending in batch:
                    if pending.timer is not None:
                        pending.timer.cancel()
                self._grant_space(lane)
                self.metrics.gauge(
                    "repro_frontend_queue_depth", mode="max", kind=lane.kind
                ).set(len(lane.queue))
                await self._flush(lane.kind, batch, reason)
            await self._await_rejoin(lane, Counter(p.source for p in batch))

    async def _await_rejoin(self, lane: _Lane, served: Counter) -> None:
        """Hold a full next batch up to ``max_wait_ms`` for the sources
        a flush just answered to send as many requests again.

        Their callers can only send again once the answers are back,
        while a source with a backlog (a firehose) is ready at once;
        flushing the backlog immediately would hand every other batch
        to it alone.  Only requests admitted after the flush count: a
        source's leftover from before it is not an answer to it, and
        counting leftovers releases the hold at a polite source's first
        re-send, locking its share below its window.  Without a full
        batch queued, or after a single-source flush, nothing waits.
        The lane holds no slot meanwhile, so other lanes dispatch.
        """
        cfg = self.config
        if len(served) < 2:
            return
        # Keyed by id, holding the requests keeps the ids unique.
        leftover = {id(p): p for p in lane.queue}
        until = time.perf_counter() + cfg.max_wait_ms / 1000.0
        while not self._draining:
            remaining = until - time.perf_counter()
            if remaining <= 0 or len(lane.queue) < cfg.max_batch:
                return
            fresh = Counter(p.source for p in lane.queue if id(p) not in leftover)
            if all(fresh[source] >= n for source, n in served.items()):
                return
            lane.arrival.clear()
            try:
                await asyncio.wait_for(lane.arrival.wait(), timeout=remaining)
            except asyncio.TimeoutError:
                return

    def _expire(self, lane: _Lane, pending: _Pending) -> None:
        """Resolve a queued request whose deadline passed, unrun.

        The request's deadline timer calls this at expiry, so its
        caller hears at the deadline even while a flush holds the slot;
        a request no longer queued (taken, withdrawn, shed) is left
        alone.  The freed space goes to blocked submitters.
        """
        if not _remove(lane.queue, pending):
            return
        now = time.perf_counter()
        m = self.metrics
        m.counter("repro_deadline_expired_total", stage="queued").inc()
        m.counter("repro_frontend_resolved_total", kind=lane.kind, outcome="failed").inc()
        pending.resolve(Failed(
            kind=KIND_DEADLINE,
            message=(
                f"deadline expired after {(now - pending.enqueued_at) * 1e3:.1f} ms "
                f"in the {lane.kind} queue"
            ),
            latency=now - pending.enqueued_at,
        ))
        m.gauge("repro_frontend_queue_depth", mode="max", kind=lane.kind).set(len(lane.queue))
        self._grant_space(lane)

    async def _flush(self, kind: str, batch: List[_Pending], reason: str) -> None:
        """Dispatch one coalesced batch and resolve every future in it."""
        now = time.perf_counter()
        wait = now - batch[0].enqueued_at
        m = self.metrics
        m.counter("repro_frontend_flushes_total", kind=kind, reason=reason).inc()
        m.histogram(
            "repro_frontend_batch_size", buckets=_BATCH_SIZE_BUCKETS, kind=kind
        ).observe(len(batch))
        m.histogram("repro_frontend_flush_wait_seconds", kind=kind).observe(wait)

        cfg = self.config
        jobs = [(p.kind, p.payload) for p in batch]
        kwargs: Dict[str, Any] = dict(
            workers=cfg.workers, dedup=cfg.dedup, min_chunk=cfg.min_chunk
        )
        # When every caller in the batch carries a deadline, hand the
        # engine the largest remaining budget so chunk waits and retries
        # downstream never outlive the callers.  The kwarg is only
        # passed when a budget exists, keeping plain engines (and test
        # stubs) with the historical signature working.
        if all(p.expires_at is not None for p in batch):
            kwargs["deadline"] = Deadline(
                max(p.expires_at for p in batch), clock=time.perf_counter
            )
        loop = asyncio.get_running_loop()
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-frontend-dispatch"
            )
        try:
            result = await loop.run_in_executor(
                self._executor,
                lambda: self.engine.run_jobs(jobs, **kwargs),
            )
            outcomes = result.outcomes
        except Exception as exc:
            # The whole flush exploded before per-item isolation could
            # apply (the engine itself failed).  Every caller in the
            # batch gets the same typed failure; the front door stays up.
            failure_kind = classify_exception(exc)
            outcomes = [
                Failed(kind=failure_kind, message=str(exc), index=i)
                for i in range(len(batch))
            ]
            m.counter("repro_frontend_flush_errors_total", kind=kind).inc()
        for pending, outcome in zip(batch, outcomes):
            m.counter(
                "repro_frontend_resolved_total", kind=kind,
                outcome="failed" if isinstance(outcome, Failed) else "ok",
            ).inc()
            pending.resolve(outcome)

    # -- lifecycle -----------------------------------------------------
    async def aclose(self, drain: bool = True) -> None:
        """Close admission and shut down.

        ``drain=True`` (default) flushes and resolves every queued
        request before returning; ``drain=False`` abandons the queue,
        resolving each pending future with a ``cancelled`` failure.
        Idempotent; afterwards :meth:`submit` raises
        :class:`FrontendClosed`.
        """
        self._closed = True
        self._draining = True
        if not drain:
            # Abandon what is still queued; an in-flight flush (already
            # popped from its queue) is never cancelled — its callers
            # still get real outcomes, so every future resolves once.
            for lane in self._lanes.values():
                while lane.queue:
                    pending = lane.queue.popleft()
                    pending.resolve(
                        Failed(
                            kind=KIND_CANCELLED,
                            message="frontend closed without draining",
                            latency=time.perf_counter() - pending.enqueued_at,
                        )
                    )
                    self.metrics.counter(
                        "repro_frontend_resolved_total",
                        kind=lane.kind, outcome="cancelled",
                    ).inc()
        tasks = []
        for lane in self._lanes.values():
            for waiters in lane.blocked.values():
                for _, grant in waiters:
                    grant.set_result(False)
            lane.blocked.clear()
            lane.arrival.set()
            if lane.task is not None:
                tasks.append(lane.task)
        for task in tasks:
            await task
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "Frontend":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    @property
    def queue_depth(self) -> int:
        """Requests currently queued across every kind."""
        return sum(len(lane.queue) for lane in self._lanes.values())

    @property
    def closed(self) -> bool:
        return self._closed


def _take_batch(queue: Deque[_Pending], max_batch: int) -> List[_Pending]:
    """Pop up to ``max_batch`` requests, one per source per rotation.

    Sources rotate in the order of their oldest queued request; each
    source's own requests leave in FIFO order, so a single-source
    queue pops plain FIFO.
    """
    n = min(max_batch, len(queue))
    by_source: Dict[Hashable, List[_Pending]] = {}
    for p in queue:
        by_source.setdefault(p.source, []).append(p)
    batch: List[_Pending] = []
    for rotation in zip_longest(*by_source.values()):
        batch.extend(p for p in rotation if p is not None)
        if len(batch) >= n:
            break
    del batch[n:]
    taken = {id(p) for p in batch}
    rest = [p for p in queue if id(p) not in taken]
    queue.clear()
    queue.extend(rest)
    return batch


def _remove(queue: Deque[Any], pending: _Pending, key=lambda p: p) -> bool:
    """Remove the entry whose ``key`` is ``pending`` (by identity)."""
    for i, entry in enumerate(queue):
        if key(entry) is pending:
            del queue[i]
            return True
    return False


#: Batch-size histogram buckets (requests per flush, not seconds).
_BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)
