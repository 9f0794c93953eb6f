"""Batch scalar-multiplication engine: many scalars, one compiled flow.

The paper's chip amortizes its design effort across every operation it
will ever run — the microprogram is compiled once, then scalars stream
through the datapath.  The serving layer reproduces that economics in
software.  The curve constants (phi, psi, their compiled maps and the
decomposer) are process-wide: the trace builders read
:func:`repro.curve.committed.curve_constants`, loaded and verified once
per process.  A :class:`BatchEngine` owns

* a :class:`~repro.serve.cache.FlowArtifactCache` so the job-shop solve
  and register allocation are paid once per workload shape, and each
  shape's program is compiled once into an instruction tape,
* a resettable :class:`~repro.rtl.datapath.DatapathSimulator` reused
  by the cache fills,

and exposes batch entry points — :meth:`batch_scalarmult`,
:meth:`batch_dh`, :meth:`batch_verify` — with optional
``multiprocessing`` fan-out (balanced chunks, order-preserving, with a
serial fallback).  Everything the engine observes — per-item outcomes
and latencies, cache events, simulated cycles, chunk recovery — is
recorded into its :class:`~repro.obs.MetricsRegistry` (``metrics=``);
a caller that wants per-batch figures passes a registry of its own.

Fault isolation is a first-class layer: a rejected request (small-order
peer key, malformed encoding, bad signature material) costs exactly one
:class:`~repro.serve.faults.Failed` slot in the result, never the batch.
``strict=True`` runs the whole batch, then raises its lowest-index
failure as the exception class its kind names.

Worker fan-out runs on a *supervised resident pool*
(:class:`~repro.serve.resilience.PoolSupervisor`): one
``ProcessPoolExecutor`` kept alive across batches — so resident workers
keep their flow-artifact caches warm — health-probed and restarted on
breakage, with a token bucket preventing restart storms.  A chunk whose
worker dies or exceeds its time budget is retried on the pool with
jittered exponential backoff (:class:`~repro.serve.resilience.RetryPolicy`),
bounded by attempts *and* the batch deadline; chunks that exhaust their
attempts are recovered serially in the parent (order still preserved),
so one crashed worker cannot discard results that were already computed.
A :class:`~repro.serve.resilience.CircuitBreaker` trips after repeated
pool-level failures and degrades the engine to serial in-process
execution until a half-open probe proves the pool healthy again.  A
``deadline`` budget on any batch entry point bounds queue-to-result
time: items the budget cannot cover resolve as typed
``Failed(KIND_DEADLINE)`` instead of running late.

Every job kind is declared once, in :data:`KINDS`: its payload, its
input-domain check, its dedup key, its executor, and whether TCP
clients may send it.  Every batch runs through one dispatcher
(:meth:`BatchEngine._run_batch`) and every item through one loop
(:meth:`BatchEngine._run_serial`) that reads that table, so a payload
outside its kind's domain resolves as ``Failed(kind="value"|"type")``
before it reaches any executor; a ``grouped`` kind's checked payloads
reach theirs in one call.

A request whose shape is already cached is not traced into micro-ops:
the trace builder runs with a value-only
:class:`~repro.trace.tracer.ValueRecorder`, and the shape's compiled
tape replays the recording on the datapath's unit models.  Every
result is still verified bit-for-bit: the golden check proves each
op's result against the recorded field-layer value, each output is
compared with its recorded value, and the engine reads the final point
from those outputs.  Batching changes cost, never results.
"""

from __future__ import annotations

import os
import pickle
import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..curve.encoding import encode_point, decode_point
from ..curve.multiscalar import (
    batch_verify_schnorr,
    in_order_n_subgroup,
    multi_scalar_mul,
    pippenger_cost_model,
    validate_verify_item,
)
from ..curve.params import SUBGROUP_ORDER_N, is_on_curve
from ..curve.point import AffinePoint
from ..dsa.fourq_dh import SmallOrderPoint
from ..dsa.fourq_schnorr import SchnorrSignature, _challenge
from ..flow import FLOW_STAGE_SECONDS, FlowResult, run_flow
from ..hashes.sha256 import sha256
from ..obs import MetricsRegistry, get_registry
from ..rtl.datapath import DatapathSimulator
from ..sched.jobshop import MachineSpec
from ..trace.program import (
    trace_double_scalar_mult,
    trace_msm_window,
    trace_scalar_mult,
)
from ..trace.tracer import ValueRecorder
from .cache import FlowArtifactCache
from .faults import (
    KIND_DEADLINE,
    DeadlineExceeded,
    Failed,
    Ok,
    classify_exception,
)
from .resilience import (
    CircuitBreaker,
    Deadline,
    PoolSupervisor,
    RetryPolicy,
    TokenBucket,
)

#: batch_verify evaluation modes: ``simulate`` runs each item's
#: double-base workload on the simulated datapath; ``msm`` resolves the
#: whole batch with one randomized multi-scalar multiplication and
#: falls back to bisection + per-item simulation on rejection.
_VERIFY_MODES = ("simulate", "msm")

#: Fixed shape of the traced Pippenger window kernel (the micro-op DAG
#: must be identical across calls so the flow-artifact cache holds).
_MSM_KERNEL_POINTS = 8
_MSM_KERNEL_WINDOW = 4


# -- input domains -------------------------------------------------------
# A check raises ValueError/TypeError, so a payload outside its kind's
# domain becomes a typed Failed(kind="value"|"type"), never "internal".


def _check_scalar(k) -> None:
    if not isinstance(k, int):
        raise TypeError(f"scalar must be an int, not {type(k).__name__}")


def _check_point(p, what: str) -> None:
    """An on-curve point of the order-N subgroup (memoized per point).

    The wire decoder does not check the curve equation, and the
    endomorphism decomposition the trace, the simulator and
    ``multi_scalar_mul`` share is valid on the subgroup alone: a
    torsion component would come back as an agreed-upon wrong answer
    the golden check cannot catch.
    """
    if not isinstance(p, AffinePoint):
        raise TypeError(f"{what} must be an AffinePoint, not {type(p).__name__}")
    if not is_on_curve(p.x, p.y):
        raise ValueError(f"{what} is not on the curve")
    if not in_order_n_subgroup(p):
        raise ValueError(
            f"{what} is outside the order-N subgroup; clear the cofactor first"
        )


def _check_sm(payload) -> None:
    k, point = payload
    _check_scalar(k)
    _check_point(point, "sm base point")


def _check_dh(payload) -> None:
    private, peer_public = payload
    _check_scalar(private)
    if not isinstance(peer_public, (bytes, bytearray)):
        raise TypeError("dh peer public key must be bytes")


def _is_fp2(c) -> bool:
    return isinstance(c, tuple) and len(c) == 2 and all(isinstance(v, int) for v in c)


def _check_verify(payload) -> None:
    public, message, sig = payload
    if not isinstance(public, AffinePoint):
        raise TypeError("verify public key must be an AffinePoint")
    if not isinstance(message, (bytes, bytearray)):
        raise TypeError("verify message must be bytes")
    if not (
        isinstance(sig, SchnorrSignature) and isinstance(sig.s, int)
        and _is_fp2(sig.commit_x) and _is_fp2(sig.commit_y)
    ):
        raise TypeError("verify signature must be a SchnorrSignature")


def _check_msm(payload) -> None:
    scalars, points = payload
    if len(scalars) != len(points):
        raise ValueError("msm needs exactly one point per scalar")
    for k in scalars:
        _check_scalar(k)
    for p in points:
        _check_point(p, "msm point")


def _check_fault(payload) -> None:
    if payload[0] not in ("noop", "exit", "sleep"):
        raise ValueError(f"unknown fault mode {payload[0]!r}")


# -- executors: (engine, payload) -> result, run after the check --------


def _run_sm(engine: "BatchEngine", payload) -> AffinePoint:
    k, p = payload
    if p.is_identity() or k % SUBGROUP_ORDER_N == 0:
        # Degenerate inputs never reach the endomorphism formulas —
        # same contract as scalar_mul_fourq.
        return (k % SUBGROUP_ORDER_N) * p
    return engine._point_from_outputs(engine.scalarmult_flow(k, p))


def _run_dh(engine: "BatchEngine", payload) -> bytes:
    private, peer_public = payload
    cleared = decode_point(peer_public).clear_cofactor()
    if cleared.is_identity():
        raise SmallOrderPoint("peer public key has small order")
    if private % SUBGROUP_ORDER_N == 0:
        raise SmallOrderPoint("degenerate shared point")
    shared = engine._point_from_outputs(engine.scalarmult_flow(private, cleared))
    if shared.is_identity():
        raise SmallOrderPoint("degenerate shared point")
    return sha256(encode_point(shared))


def _run_verify(engine: "BatchEngine", payload) -> bool:
    public, message, sig = payload
    commit = validate_verify_item(public, sig)
    if commit is None:
        return False
    e = _challenge(commit, public, message)
    u2 = SUBGROUP_ORDER_N - e
    if public.is_identity() or u2 % SUBGROUP_ORDER_N == 0:
        # Degenerate double-base shapes collapse to single-base.
        return engine.scalarmult(sig.s) == commit
    flow = engine.double_scalarmult_flow(sig.s, u2, AffinePoint.generator(), public)
    return engine._point_from_outputs(flow) == commit


def _run_msm(engine: "BatchEngine", payload) -> AffinePoint:
    scalars, points = payload
    result = multi_scalar_mul(scalars, points)
    live = sum(
        1
        for k, p in zip(scalars, points)
        if not p.is_identity() and k % SUBGROUP_ORDER_N
    )
    engine.metrics.counter("repro_msm_model_cycles_total").inc(
        engine.msm_cycles_estimate(live)
    )
    return result


def _run_fault(engine: "BatchEngine", payload) -> Tuple[str, str]:
    # Fault-injection hook (tests, chaos benchmarks).  The payload fires
    # only inside pool workers; in the parent it degrades to a marker
    # value, so a requeued chunk is recoverable by the parent's serial
    # re-run.
    mode = payload[0]
    if _IN_WORKER:
        if mode == "exit":
            os._exit(17)
        if mode == "sleep":
            time.sleep(payload[1])
    return ("fault", mode)


def _verify_msm_group(
    engine: "BatchEngine",
    items: Sequence[Tuple[AffinePoint, bytes, SchnorrSignature]],
    deadline: Optional[Deadline] = None,
) -> List[Any]:
    """Resolve checked verify items with one randomized MSM + fallback.

    Each slot ends as a verdict or as the exception that stopped it, for
    :meth:`BatchEngine._run_serial` to envelope and count.  Three stages:

    1. **Vet** every item with :func:`repro.curve.multiscalar.
       validate_verify_item`: off-curve or out-of-subgroup points and
       out-of-range s resolve ``False`` (the verdict per-item
       ``verify`` reaches for such a signature, without endangering
       the batch soundness argument).
    2. **Batch-check** the survivors via
       :func:`~repro.curve.multiscalar.batch_verify_schnorr` —
       all-honest batches (the overwhelmingly common case) resolve
       here at roughly the cost of one large MSM.
    3. **Bisect** a rejected batch: halves re-check recursively, so
       each bad item is cornered in O(log n) sub-batches while the
       honest majority still resolves in bulk; size-1 rejects run
       the authoritative per-item *simulated* verification (the
       bit-verified datapath path — same verdict as
       :func:`repro.dsa.fourq_schnorr.verify`), so one forgery
       costs log-factor extra MSM work, never 63 honest slots.

    Every batch MSM performed adds its window-kernel extrapolation
    (:meth:`BatchEngine.msm_cycles_estimate`) to
    ``repro_msm_model_cycles_total``; fallback per-item verifications
    record real datapath cycles.
    """
    m = engine.metrics
    m.histogram("repro_msm_batch_size").observe(len(items))
    results: List[Any] = [None] * len(items)
    live: List[int] = []
    for idx, (public, _, sig) in enumerate(items):
        if validate_verify_item(public, sig) is None:
            results[idx] = False
        else:
            live.append(idx)

    model_cycles = m.counter("repro_msm_model_cycles_total")
    whole_batch_accepted = bool(live)
    subsets: List[List[int]] = [live] if live else []
    while subsets:
        subset = subsets.pop()
        if deadline is not None and deadline.expired:
            for idx in subset:
                results[idx] = DeadlineExceeded(
                    "deadline expired during batch verification"
                )
            continue
        accepted: Optional[bool]
        try:
            accepted = batch_verify_schnorr([items[i] for i in subset])
        except Exception:
            accepted = None  # isolate: resolve these items one by one
        if accepted:
            model_cycles.inc(engine.msm_cycles_estimate(2 * len(subset) + 1))
            for idx in subset:
                results[idx] = True
            continue
        whole_batch_accepted = False
        if accepted is None or len(subset) == 1:
            # The authoritative per-item verdict on the simulated datapath.
            for idx in subset:
                m.counter("repro_msm_fallback_verifies_total").inc()
                try:
                    results[idx] = _run_verify(engine, items[idx])
                except Exception as exc:
                    results[idx] = exc
            continue
        model_cycles.inc(engine.msm_cycles_estimate(2 * len(subset) + 1))
        mid = len(subset) // 2
        subsets.append(subset[mid:])
        subsets.append(subset[:mid])

    for r in results:
        verdict = "error" if isinstance(r, Exception) else "valid" if r else "invalid"
        m.counter("repro_msm_items_total", verdict=verdict).inc()
    m.counter(
        "repro_msm_batches_total",
        outcome="accepted" if whole_batch_accepted else "fallback",
    ).inc()
    if live:
        m.gauge("repro_msm_simulated_cycles_per_op").set(
            engine.msm_cycles_estimate(2 * len(live) + 1) / len(live)
        )
    return results


# -- the job-kind table ----------------------------------------------------


@dataclass(frozen=True)
class JobKind:
    """One job kind: every per-kind fact the serving stack needs.

    ``check`` vets a payload (raising ``ValueError``/``TypeError``);
    ``run`` computes it — ``(engine, payload) -> result``, or for a
    ``grouped`` kind ``(engine, payloads, deadline) -> results``, one
    value or raised exception per checked payload, in the parent.
    ``key`` gives the dedup key (``None``: never deduplicated);
    ``wire`` admits the kind over TCP.  ``payload`` and ``domain`` are
    the contract ``docs/serving.md`` tabulates.
    """

    name: str
    payload: str
    domain: str
    check: Callable[[Any], None]
    run: Callable[..., Any]
    key: Optional[Callable[[Any], tuple]] = None
    wire: bool = True
    grouped: bool = False
    aliases: Tuple[str, ...] = ()


#: Every job kind the engine, the Frontend and the TCP server accept.
KINDS: Dict[str, JobKind] = {spec.name: spec for spec in (
    JobKind(
        "sm", "`(k, point)`", "int k; on-curve point of the order-N subgroup",
        _check_sm, _run_sm, aliases=("scalarmult",),
        key=lambda p: (p[0] % SUBGROUP_ORDER_N, p[1].x, p[1].y),
    ),
    JobKind(
        "dh", "`(private, peer_public)`",
        "int private; 32-byte encoding (bad ones fail `decoding`/`small_order`)",
        _check_dh, _run_dh, key=lambda p: (p[0] % SUBGROUP_ORDER_N, bytes(p[1])),
    ),
    JobKind(
        "verify", "`(public, message, signature)`",
        "AffinePoint, bytes, SchnorrSignature; a key outside the subgroup verifies `False`",
        _check_verify, _run_verify,
    ),
    JobKind(
        "verify_msm", "`(public, message, signature)`",
        "as `verify`; a flush's items resolve as one randomized MSM",
        _check_verify, _verify_msm_group, grouped=True, aliases=("verify-msm",),
    ),
    JobKind(
        "msm", "`(scalars, points)`",
        "equal lengths; int scalars; on-curve points of the order-N subgroup",
        _check_msm, _run_msm,
    ),
    JobKind(
        "fault", "`(mode, ...)`",
        "`noop`, `exit` or `(\"sleep\", s)`: crash injection, fires in pool workers only",
        _check_fault, _run_fault, wire=False,
    ),
)}

_BY_NAME: Dict[str, JobKind] = {
    name: spec for spec in KINDS.values() for name in (spec.name, *spec.aliases)
}

#: The kinds a TCP client may send.
WIRE_KINDS = tuple(name for name, spec in KINDS.items() if spec.wire)


def job_kind(name: Any, wire: bool = False) -> JobKind:
    """The table row for ``name`` or an alias; ``ValueError`` if none,
    or if ``wire`` is set and TCP clients may not send the kind."""
    spec = _BY_NAME.get(name) if isinstance(name, str) else None
    if spec is None or (wire and not spec.wire):
        choices = WIRE_KINDS if wire else tuple(KINDS)
        raise ValueError(f"unknown job kind {name!r}; choose from {choices}")
    return spec


@dataclass
class BatchResult:
    """Per-item outcomes, input order preserved.

    ``results`` holds the raw success value in each successful slot —
    callers that index or iterate see plain points/digests/booleans,
    exactly as before fault isolation existed — and the typed
    :class:`~repro.serve.faults.Failed` envelope in the slot of each
    isolated failure.  Use :attr:`errors` / :attr:`ok_count` to inspect
    the failure picture, :meth:`raise_any` / :meth:`unwrap` to opt back
    into exception semantics, and :attr:`outcomes` for a uniform
    ``Ok``/``Failed`` view.  Batch-level figures (throughput, cache
    hits, simulated cycles) live in the engine's metrics registry.
    """

    results: List[Any]

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, i):
        return self.results[i]

    @property
    def errors(self) -> List[Failed]:
        """The failed envelopes, in input order (``.index`` is the slot)."""
        return [r for r in self.results if isinstance(r, Failed)]

    @property
    def ok_count(self) -> int:
        """Items that completed successfully."""
        return len(self.results) - len(self.errors)

    @property
    def outcomes(self) -> List[Any]:
        """Uniform per-item view: ``Ok(value, index)`` or ``Failed``."""
        return [
            r if isinstance(r, Failed) else Ok(value=r, index=i)
            for i, r in enumerate(self.results)
        ]

    def raise_any(self) -> None:
        """Raise the first (lowest-index) failure as its exception class."""
        errors = self.errors
        if errors:
            raise errors[0].to_exception()

    def unwrap(self) -> List[Any]:
        """All raw values; raises the first failure if any item failed."""
        self.raise_any()
        return list(self.results)


class BatchEngine:
    """Streams batches of scalar multiplications through one cached flow.

    Args:
        machine: datapath timing model shared by every request.
        scheduler: ``"auto"`` / ``"list"`` / ``"cp"`` (forwarded to the
            flow; full scalar multiplications resolve to list
            scheduling).
        optimize: trace-optimizer level forwarded to the flow —
            ``"none"`` / ``"cse"`` / ``"full"`` (see
            ``docs/optimizer.md``); folded into the shape keys, so an
            engine never mixes artifacts across levels.
        cache_entries: LRU bound of the flow-artifact cache (each
            workload shape — single-base SM, double-base SM, per
            recoding length — occupies one entry).
        chunk_timeout: optional per-chunk time budget (seconds) in
            worker fan-out mode; a chunk that exceeds it is requeued,
            the pool is restarted (a hung worker cannot be cancelled),
            and the chunk is retried or recovered serially
            (``None`` = wait forever).
        metrics: registry the engine (and the flows it runs) records
            into — per-item outcome counters, latency histograms, cache
            event counters, chunk-recovery counters.  Defaults to the
            process-wide :func:`repro.obs.get_registry`; worker
            processes record into their own registry and ship a
            snapshot home, merged here.
        retry_policy: jittered-exponential-backoff budget for transient
            chunk faults in fan-out mode (see
            :class:`~repro.serve.resilience.RetryPolicy`;
            ``max_attempts=1`` reproduces the historical one-shot
            requeue).
        breaker: circuit breaker guarding the pool; trips to serial
            degradation after consecutive pool-level failures.
        restart_limiter: token bucket gating pool restarts so a
            crash-looping worker cannot fork-bomb the host.
        resident_pool: keep the worker pool alive across batch calls
            (the default — resident workers retain warm artifact
            caches); ``False`` restores build-per-batch, for
            comparison benchmarks.
        retry_rng: RNG drawn for backoff jitter; seed it for a
            reproducible retry schedule (tests do).
    """

    def __init__(
        self,
        machine: Optional[MachineSpec] = None,
        scheduler: str = "auto",
        optimize: str = "none",
        cache_entries: int = 16,
        chunk_timeout: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        restart_limiter: Optional[TokenBucket] = None,
        resident_pool: bool = True,
        retry_rng: Optional[random.Random] = None,
    ):
        self.machine = machine or MachineSpec()
        self.scheduler = scheduler
        self.optimize = optimize
        self.chunk_timeout = chunk_timeout
        self.metrics = metrics if metrics is not None else get_registry()
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker(metrics=self.metrics)
        )
        self.resident_pool = resident_pool
        self._retry_rng = retry_rng if retry_rng is not None else random.Random()
        self._restart_limiter = (
            restart_limiter
            if restart_limiter is not None
            else TokenBucket(capacity=8, refill_seconds=1.0)
        )
        self._supervisor: Optional[PoolSupervisor] = None
        self.cache = FlowArtifactCache(max_entries=cache_entries)
        self.simulator = DatapathSimulator(
            mult_depth=self.machine.mult_latency,
            addsub_depth=self.machine.addsub_latency,
        )
        # (cycles, arithmetic µops) of the traced MSM window kernel —
        # memoized so batch verification prices its cycle model without
        # re-tracing per batch.
        self._msm_kernel_stats: Optional[Tuple[int, int]] = None
        # Last seen shape key per workload kind: hands run_flow a
        # precomputed key so same-shape requests skip re-hashing the
        # trace.  A stale key (shape drift) is harmless — run_flow
        # detects the mismatch, recomputes the true key, and we re-memo.
        self._shape_keys: Dict[str, str] = {}

    def warm(self, point: Optional[AffinePoint] = None) -> None:
        """Pay every one-time cost now: curve artifacts + one full flow.

        After ``warm()``, single-base requests hit the artifact cache.
        """
        self.scalarmult(3, point or AffinePoint.generator())

    # -- single-request paths ------------------------------------------
    def _flow(self, shape: str, trace: Callable[..., Any], **trace_args) -> FlowResult:
        """Trace one workload and run it through the cached flow.

        Once a shape's key is known, the builder records values only
        (a :class:`ValueRecorder`): a cache hit replays them on the
        shape's compiled tape, and ``run_flow`` re-traces in full if it
        cannot.
        """
        key = self._shape_keys.get(shape)
        if key is not None and self.optimize == "none":
            trace_args["tracer"] = ValueRecorder()
        t0 = time.perf_counter()
        prog = trace(**trace_args)
        self.metrics.histogram(FLOW_STAGE_SECONDS, stage="trace").observe(
            time.perf_counter() - t0
        )
        flow = run_flow(
            prog,
            machine=self.machine,
            scheduler=self.scheduler,
            optimize=self.optimize,
            cache=self.cache,
            simulator=self.simulator,
            cache_key=key,
            metrics=self.metrics,
        )
        if flow.cache_key is not None:
            self._shape_keys[shape] = flow.cache_key
        return flow

    def scalarmult_flow(self, k: int, point: Optional[AffinePoint] = None) -> FlowResult:
        """Full verified flow for one [k]P (cache-aware)."""
        # self_check=False skips the slow affine (k mod N)*P reference
        # inside the tracer; the datapath result is still verified
        # op by op against the traced values.
        return self._flow(
            "scalarmult", trace_scalar_mult, k=k, point=point, self_check=False,
        )

    def scalarmult(self, k: int, point: Optional[AffinePoint] = None) -> AffinePoint:
        """[k]P computed on the simulated datapath (bit-verified).

        Runs the ``sm`` row of :data:`KINDS`: ``point`` must lie in the
        order-N subgroup (``ValueError`` otherwise); there [k]P equals
        textbook double-and-add, and every datapath op's result is
        checked against the traced reference.
        """
        payload = (k, point or AffinePoint.generator())
        _check_sm(payload)
        return _run_sm(self, payload)

    def double_scalarmult_flow(
        self, u1: int, u2: int, p1: AffinePoint, p2: AffinePoint
    ) -> FlowResult:
        """Full verified flow for [u1]P1 + [u2]P2 (cache-aware)."""
        return self._flow(
            "double_scalarmult", trace_double_scalar_mult, u1=u1, u2=u2,
            p1=p1, p2=p2, self_check=False,
        )

    def msm_kernel_flow(self) -> FlowResult:
        """Trace + simulate one Pippenger bucket window (cache-aware).

        The serving MSM itself runs on the raw field arithmetic, by a
        different algorithm (interleaved wNAF) whose digit pattern is
        data-dependent, so per-request traces would never share a
        shape.  Instead this fixed-shape window
        kernel (:func:`repro.trace.program.trace_msm_window`) goes
        through the full trace → job-shop → microcode → simulate flow
        once, and :meth:`msm_cycles_estimate` extrapolates whole-MSM
        cycle counts from its measured cycles-per-µop density.
        """
        flow = self._flow(
            "msm_window", trace_msm_window,
            n_points=_MSM_KERNEL_POINTS, window=_MSM_KERNEL_WINDOW,
        )
        # Unoptimized, the scheduled ops are the trace's arithmetic ops
        # (a hit's recording has no micro-ops to count).
        ops = (
            flow.problem.size
            if flow.optimized_program is None
            else flow.trace_program.arithmetic_size
        )
        self._msm_kernel_stats = (flow.cycles, ops)
        return flow

    def msm_cycles_estimate(
        self, n_points: int, window: Optional[int] = None
    ) -> int:
        """Simulated-cycle estimate for an ``n_points`` bucket MSM.

        Extrapolation model: the traced window kernel's simulated
        cycles-per-µop density (how tightly the scheduler packs the
        double/bucket/aggregate mix onto the datapath) times the full
        algorithm's µop count from
        :func:`repro.curve.multiscalar.pippenger_cost_model`.  A model,
        not a measurement — the honest label for a workload whose trace
        shape is data-dependent.
        """
        if n_points <= 0:
            return 0
        if self._msm_kernel_stats is None:
            self.msm_kernel_flow()
        kernel_cycles, kernel_ops = self._msm_kernel_stats
        mults, addsubs = pippenger_cost_model(n_points, window)
        return int(round(kernel_cycles * (mults + addsubs) / kernel_ops))

    @staticmethod
    def _point_from_outputs(flow: FlowResult) -> AffinePoint:
        out = flow.simulation.outputs
        return AffinePoint(out["result_x"], out["result_y"], check=False)

    # -- batch entry points --------------------------------------------
    def batch_scalarmult(
        self,
        scalars: Sequence[int],
        point: Optional[AffinePoint] = None,
        points: Optional[Sequence[AffinePoint]] = None,
        workers: int = 0,
        dedup: bool = True,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
    ) -> BatchResult:
        """Compute [k_i]P (shared ``point``) or [k_i]P_i (``points``).

        Args:
            scalars: the batch of scalars.
            point: one base shared by the whole batch (default: the
                generator).  Mutually exclusive with ``points``.
            points: per-scalar base points (same length as ``scalars``).
            workers: >1 fans chunks out across that many processes;
                0/1 runs serially in-process (the default, and the
                fallback when the platform lacks ``fork``/``spawn``).
            dedup: compute repeated (k mod N, P) requests once.
            strict: raise on the first failed item instead of returning
                its :class:`~repro.serve.faults.Failed` envelope.
            min_chunk: chunking hint — never give a worker fewer than
                this many jobs (see :meth:`plan_workers`); small flushes
                degrade to fewer workers or the serial path instead of
                paying pool fan-out.
            deadline: optional time budget — seconds (relative) or a
                :class:`~repro.serve.resilience.Deadline`.  Work the
                budget cannot cover resolves as typed
                ``Failed(KIND_DEADLINE)`` envelopes; retries and chunk
                waits never outlive it.
        """
        if points is not None and point is not None:
            raise ValueError("pass either point or points, not both")
        if points is not None and len(points) != len(scalars):
            raise ValueError("points must align with scalars")
        base = point or AffinePoint.generator()
        pts = list(points) if points is not None else [base] * len(scalars)
        jobs = [("sm", (k, p)) for k, p in zip(scalars, pts)]
        return self._run_batch(
            jobs, workers=workers, dedup=dedup, strict=strict, min_chunk=min_chunk,
            deadline=deadline,
        )

    def batch_dh(
        self,
        private: int,
        peer_publics: Sequence[bytes],
        workers: int = 0,
        dedup: bool = True,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
    ) -> BatchResult:
        """Co-factored ECDH against many peers with one private key.

        Per peer: decode, clear the cofactor, reject small-order points
        (:class:`~repro.dsa.fourq_dh.SmallOrderPoint`), run [d]P on the
        simulated datapath, hash the encoding — byte-identical to
        :func:`repro.dsa.fourq_dh.shared_secret`.  A rejected peer costs
        one :class:`~repro.serve.faults.Failed` slot (``small_order`` or
        ``decoding``), never the batch; ``strict=True`` raises instead.
        """
        jobs = [("dh", (private, pub)) for pub in peer_publics]
        return self._run_batch(
            jobs, workers=workers, dedup=dedup, strict=strict, min_chunk=min_chunk,
            deadline=deadline,
        )

    def batch_msm(
        self,
        requests: Sequence[Tuple[Sequence[int], Sequence[AffinePoint]]],
        workers: int = 0,
        dedup: bool = False,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
    ) -> BatchResult:
        """Evaluate many multi-scalar multiplications sum_i [k_i] P_i.

        Each request is a ``(scalars, points)`` pair, evaluated by the
        host's one MSM method, the interleaved wNAF of
        :func:`repro.curve.multiscalar.multi_scalar_mul`.  A request outside the ``msm`` domain
        (length mismatch, a point off the curve or outside the order-N
        subgroup) costs one typed ``Failed(kind="value"|"type")`` slot,
        never the batch.
        Each request adds the window-kernel extrapolation of
        :meth:`msm_cycles_estimate` to ``repro_msm_model_cycles_total``.
        """
        jobs = [
            ("msm", (tuple(scalars), tuple(points)))
            for scalars, points in requests
        ]
        return self._run_batch(
            jobs, workers=workers, dedup=dedup, strict=strict, min_chunk=min_chunk,
            deadline=deadline,
        )

    def batch_verify(
        self,
        items: Sequence[Tuple[AffinePoint, bytes, SchnorrSignature]],
        workers: int = 0,
        dedup: bool = False,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
        mode: str = "simulate",
    ) -> BatchResult:
        """Verify many Schnorr (public, message, signature) triples.

        ``mode="simulate"`` (the default) runs each item's double-base
        workload [s]G + [N-e]Q on the simulated datapath and compares
        against the commitment — the same decision
        :func:`repro.dsa.fourq_schnorr.verify` makes.  An
        invalid-but-well-formed signature verifies ``False``; an item
        outside the ``verify`` domain (wrong arity or types) becomes a
        typed :class:`~repro.serve.faults.Failed` envelope.

        ``mode="msm"`` runs the items as the ``verify_msm`` kind: one
        randomized multi-scalar multiplication for the whole batch,
        with bisection down to per-item simulated verification when it
        rejects (:func:`_verify_msm_group`).  Same per-item outcomes as
        ``"simulate"``, amortized cost.
        """
        if mode not in _VERIFY_MODES:
            raise ValueError(f"mode must be one of {_VERIFY_MODES}")
        kind = "verify_msm" if mode == "msm" else "verify"
        jobs = [(kind, item) for item in items]
        return self._run_batch(
            jobs, workers=workers, dedup=dedup, strict=strict, min_chunk=min_chunk,
            deadline=deadline,
        )

    def run_jobs(
        self,
        jobs: Sequence[Tuple[str, Any]],
        workers: int = 0,
        dedup: bool = True,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
    ) -> BatchResult:
        """Run a pre-formed mixed-kind job list (the front-door entry).

        Each job is ``(kind, payload)`` for a kind of :data:`KINDS` —
        the jobs the batch entry points build — so a coalescer that
        already holds typed requests (e.g.
        :class:`repro.serve.frontend.Frontend`) can dispatch one flush
        without re-entering a per-kind wrapper.
        Semantics are identical to the wrappers: input order preserved,
        per-item fault isolation, ``min_chunk``-aware fan-out,
        ``deadline``-bounded execution (seconds or a
        :class:`~repro.serve.resilience.Deadline`).
        """
        return self._run_batch(
            list(jobs), workers=workers, dedup=dedup, strict=strict,
            min_chunk=min_chunk, deadline=deadline,
        )

    @staticmethod
    def plan_workers(n_jobs: int, workers: int, min_chunk: Optional[int]) -> int:
        """Effective worker count for a flush of ``n_jobs`` items.

        The pre-computed chunking hint: with ``min_chunk`` set, no
        worker is ever handed fewer than that many jobs, so a small
        flush (the continuous-batching front door's common case under
        light load) degrades gracefully — first to fewer workers, then
        to the serial in-process path — instead of paying process-pool
        fan-out for a near-empty chunk.  ``min_chunk=None`` preserves
        the historical behaviour (any multi-item batch may fan out).
        """
        if workers <= 1 or n_jobs <= 1:
            return 0
        if min_chunk is None or min_chunk <= 1:
            return workers
        return min(workers, n_jobs // min_chunk)

    # -- execution -----------------------------------------------------
    def _settle(self, kind: str, outcome: Any, elapsed: float) -> Any:
        """Count one finished item; an exception becomes its ``Failed`` slot."""
        m = self.metrics
        if not isinstance(outcome, Exception):
            m.counter("repro_serve_items_total", kind=kind, outcome="ok").inc()
            m.histogram("repro_serve_latency_seconds", kind=kind).observe(elapsed)
            return outcome
        failure = Failed(
            kind=classify_exception(outcome), message=str(outcome), latency=elapsed
        )
        if failure.kind == KIND_DEADLINE:
            m.counter("repro_deadline_expired_total", stage="engine").inc()
        m.counter("repro_serve_items_total", kind=kind, outcome="error").inc()
        m.counter("repro_serve_errors_total", kind=failure.kind).inc()
        return failure

    def _run_serial(
        self,
        jobs: Sequence[Tuple[str, Any]],
        dedup: bool,
        deadline: Optional[Deadline] = None,
    ) -> List[Any]:
        """The one per-item loop: run jobs in-process, isolating each item.

        Each item is looked up in :data:`KINDS`, gated by the
        ``deadline`` (an item the expired budget cannot cover fails with
        ``KIND_DEADLINE`` instead of running late; one already underway
        still completes), checked against its kind's domain and run —
        except that a ``grouped`` kind's checked payloads go to its
        executor in one call after the loop.  Every slot ends as its
        value or its typed :class:`~repro.serve.faults.Failed` envelope,
        counted under the kind's canonical name (``"?"`` for a kind the
        table refuses); a grouped item's latency is an even share of its
        group's wall time.
        """
        seen: Dict[tuple, Any] = {}
        results: List[Any] = [None] * len(jobs)
        groups: Dict[JobKind, List[int]] = {}
        for i, (kind, payload) in enumerate(jobs):
            t0 = time.perf_counter()
            label = "?"
            try:
                spec = job_kind(kind)
                label = spec.name
                if deadline is not None and deadline.expired:
                    raise DeadlineExceeded(
                        "deadline expired before this item could start"
                    )
                spec.check(payload)
                if spec.grouped:
                    groups.setdefault(spec, []).append(i)
                    continue
                key = (spec.name, spec.key(payload)) if dedup and spec.key else None
                if key is not None and key in seen:
                    results[i] = seen[key]
                    self.metrics.counter(
                        "repro_serve_items_total", kind=label, outcome="dedup"
                    ).inc()
                    continue
                outcome = spec.run(self, payload)
                if key is not None:
                    seen[key] = outcome
            except Exception as exc:
                # Failures are never deduped: every bad input re-executes
                # so the error counts match the injected faults exactly.
                outcome = exc
            results[i] = self._settle(label, outcome, time.perf_counter() - t0)
        for spec, slots in groups.items():
            t0 = time.perf_counter()
            try:
                done = spec.run(self, [jobs[i][1] for i in slots], deadline)
            except Exception as exc:
                done = [exc] * len(slots)
            share = (time.perf_counter() - t0) / len(slots)
            for i, outcome in zip(slots, done):
                results[i] = self._settle(spec.name, outcome, share)
        return results

    def _run_batch(
        self,
        jobs: Sequence[Tuple[str, Any]],
        workers: int,
        dedup: bool,
        strict: bool = False,
        min_chunk: Optional[int] = None,
        deadline: Optional[Any] = None,
    ) -> BatchResult:
        """The one dispatcher every batch entry point runs through.

        Items of a ``grouped`` kind (``verify_msm``) never fan out —
        their whole point is cross-item amortization — so only the rest
        are offered to the supervised pool; whatever the pool does not
        take runs through :meth:`_run_serial` in the parent.  Slots are
        stitched back in input order, and ``strict`` raises the
        lowest-index failure once the whole batch has run.
        """
        deadline = Deadline.coerce(deadline)
        results: List[Any] = [None] * len(jobs)
        serial = list(range(len(jobs)))
        grouped = [
            isinstance(kind, str) and kind in _BY_NAME and _BY_NAME[kind].grouped
            for kind, _ in jobs
        ]
        pooled = [i for i in serial if not grouped[i]]
        workers = self.plan_workers(len(pooled), workers or 0, min_chunk)
        if workers > 1 and not self.breaker.allow():
            # Breaker open: the pool keeps failing, stop paying for it.
            self.metrics.counter("repro_breaker_short_circuits_total").inc()
        elif workers > 1:
            try:
                done = self._run_parallel(
                    [jobs[i] for i in pooled], workers, dedup, deadline=deadline
                )
                for i, r in zip(pooled, done):
                    results[i] = r
                serial = [i for i in serial if grouped[i]]
            except (ImportError, OSError, pickle.PicklingError):
                # Pools unavailable (restricted platform) or the jobs
                # cannot cross a process boundary: serial fallback.
                self.breaker.record_failure()
        done = self._run_serial([jobs[i] for i in serial], dedup, deadline=deadline)
        for i, r in zip(serial, done):
            results[i] = r
        if not self.resident_pool and self._supervisor is not None:
            self._supervisor.shutdown()
        batch = BatchResult(results=[
            replace(r, index=i) if isinstance(r, Failed) else r
            for i, r in enumerate(results)
        ])
        if strict:
            batch.raise_any()
        return batch

    # -- the resident pool ---------------------------------------------
    def _make_pool(self, workers: int):
        """Factory the supervisor rebuilds pools with (fork + initializer)."""
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            ctx = mp.get_context("spawn")
        # Per-engine settings only: per-batch knobs (``dedup``) travel
        # with each chunk, so the resident pool never needs a rebuild
        # just because a batch flipped a flag.
        config = dict(
            machine=self.machine,
            scheduler=self.scheduler,
            optimize=self.optimize,
            cache_entries=self.cache.max_entries,
        )
        return ProcessPoolExecutor(
            max_workers=workers,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(config,),
        )

    def _ensure_supervisor(self) -> PoolSupervisor:
        if self._supervisor is None:
            self._supervisor = PoolSupervisor(
                factory=self._make_pool,
                limiter=self._restart_limiter,
                metrics=self.metrics,
            )
        return self._supervisor

    @property
    def supervisor(self) -> Optional[PoolSupervisor]:
        """The resident pool's supervisor (``None`` until first fan-out)."""
        return self._supervisor

    def close(self) -> None:
        """Shut the resident worker pool down (idempotent; it rebuilds
        lazily on the next fan-out batch)."""
        if self._supervisor is not None:
            self._supervisor.shutdown()

    def _requeue(self, chunk, attempts: int, pending) -> None:
        self.metrics.counter("repro_serve_chunk_requeues_total").inc()
        pending.append((chunk, attempts + 1))

    def _run_parallel(
        self,
        jobs: Sequence[Tuple[str, Any]],
        workers: int,
        dedup: bool,
        deadline: Optional[Deadline] = None,
    ) -> List[Any]:
        """Fan chunks out across the supervised resident pool.

        Recovery ladder for a chunk whose worker dies (whole pool
        breaks) or whose result times out (hung worker — the pool is
        restarted, stragglers killed):

        1. retry on the (restarted) pool with jittered exponential
           backoff, up to ``retry_policy.max_attempts`` pool executions
           and never past the batch ``deadline``;
        2. serial re-run in the parent, where per-item isolation cannot
           lose the rest of the batch (with an expired deadline this
           resolves each remaining item as ``Failed(KIND_DEADLINE)``).

        A chunk-*local* fault (payload or result cannot cross the
        process boundary) skips the pool retries — they would fail
        identically — and goes straight to serial recovery.  Healthy
        chunks' results are never discarded by any of this, and every
        slot resolves exactly once.  The breaker hears one verdict per
        batch: failure if the pool ended broken or a restart was denied,
        success otherwise.
        """
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        chunks = _chunk(list(enumerate(jobs)), workers)
        ordered: List[Any] = [None] * len(jobs)
        supervisor = self._ensure_supervisor()
        policy = self.retry_policy
        m = self.metrics

        pending = [(ch, 0) for ch in chunks]  # (chunk, pool attempts so far)
        recover: List[List] = []  # chunks bound for serial parent recovery
        pool_ok = True
        retry_round = 0
        while pending:
            if deadline is not None and deadline.expired:
                recover.extend(ch for ch, _ in pending)
                break
            pool = supervisor.ensure(len(chunks))
            if pool is None:
                # Pool cannot be (re)built — storm limiter denied the
                # restart or the build/probe failed.  Serial recovery
                # for everything still pending.
                pool_ok = False
                recover.extend(ch for ch, _ in pending)
                break
            if retry_round:
                m.counter("repro_retry_attempts_total").inc(len(pending))
                m.counter("repro_serve_chunk_retries_total").inc(len(pending))
            round_items, pending = pending, []
            hung = broken = False
            futures = []
            for ch, attempts in round_items:
                try:
                    futures.append(
                        (pool.submit(_worker_run_chunk, ch, dedup), ch, attempts)
                    )
                except Exception:
                    broken = True
                    self._requeue(ch, attempts, pending)
            for future, ch, attempts in futures:
                timeout = self.chunk_timeout
                if deadline is not None:
                    timeout = deadline.clamp(timeout)
                try:
                    chunk_results, obs_snap = future.result(
                        timeout=timeout
                    )
                except FutureTimeout:
                    future.cancel()
                    hung = True
                    self._requeue(ch, attempts, pending)
                    continue
                except BrokenProcessPool:
                    # Worker death kills the whole pool: this chunk and
                    # every still-pending one land here and are requeued
                    # for a retry on the restarted pool.
                    broken = True
                    self._requeue(ch, attempts, pending)
                    continue
                except Exception:
                    # Chunk-local fault (unpicklable payload or result):
                    # the pool is healthy and a retry would fail the
                    # same way — straight to serial recovery.
                    m.counter("repro_serve_chunk_requeues_total").inc()
                    recover.append(ch)
                    continue
                for (i, _), r in zip(ch, chunk_results):
                    ordered[i] = r
                # Fold the worker's metric partials home.
                m.merge_snapshot(obs_snap)
            if hung or broken:
                # A hung worker cannot be cancelled through the executor
                # and a broken pool stays broken: restart (kill
                # stragglers, rebuild, health-probe) before any retry.
                supervisor.mark_broken("timeout" if hung else "crash")
                if not supervisor.restart(
                    "timeout" if hung else "crash", workers=len(chunks)
                ):
                    pool_ok = False
                    recover.extend(ch for ch, _ in pending)
                    pending = []
            # Chunks out of pool attempts fall through to serial recovery.
            still = []
            for ch, attempts in pending:
                if attempts >= policy.max_attempts:
                    m.counter("repro_retry_exhausted_total").inc()
                    recover.append(ch)
                else:
                    still.append((ch, attempts))
            pending = still
            if pending:
                delay = policy.backoff(retry_round, self._retry_rng)
                if deadline is not None:
                    delay = deadline.clamp(delay)
                m.histogram("repro_retry_backoff_seconds").observe(delay)
                if delay > 0:
                    time.sleep(delay)
                retry_round += 1
        if pool_ok:
            self.breaker.record_success()
        else:
            self.breaker.record_failure()
        for chunk in recover:
            # Guaranteed recovery: the serial path isolates per item, so
            # one run always completes (late items fail typed under an
            # expired deadline rather than running past it).
            chunk_results = self._run_serial(
                [job for _, job in chunk], dedup, deadline=deadline
            )
            m.counter("repro_serve_chunk_retries_total").inc()
            for (i, _), r in zip(chunk, chunk_results):
                ordered[i] = r
        return ordered


# -- worker fan-out machinery ------------------------------------------


_WORKER_ENGINE: Optional[BatchEngine] = None
#: True only inside pool worker processes (set by the initializer); the
#: fault-injection job kind keys off this so injected crashes can never
#: take down the parent.
_IN_WORKER: bool = False


def _worker_init(config: Dict[str, Any]) -> None:
    global _WORKER_ENGINE, _IN_WORKER
    _IN_WORKER = True
    # Workers never fan out themselves; their engine needs no pool.
    _WORKER_ENGINE = BatchEngine(**config, resident_pool=False)


def _worker_run_chunk(chunk, dedup: bool = True):
    assert _WORKER_ENGINE is not None
    # The worker's process-wide registry accounts for this chunk only:
    # reset at the start, snapshot (plain picklable dict) shipped home at
    # the end and merged by the parent.  A fork worker inherits the
    # parent's registry contents, so without the reset the parent would
    # double-count everything it recorded before the fork.
    registry = get_registry()
    registry.reset()
    results = _WORKER_ENGINE._run_serial([job for _, job in chunk], dedup)
    return results, registry.snapshot()


def _chunk(items: List, n: int) -> List[List]:
    """Split into at most n balanced contiguous chunks (sizes differ <= 1).

    Never emits an empty chunk: 5 jobs across 4 workers yield sizes
    [2, 1, 1, 1] — four busy workers, not three chunks and an idle one.
    The pool is sized ``len(chunks)``, never more.
    """
    if not items:
        return []
    n = max(1, min(n, len(items)))
    base, extra = divmod(len(items), n)
    chunks: List[List] = []
    start = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        chunks.append(items[start : start + size])
        start += size
    return chunks


# -- the shared default engine ------------------------------------------

_DEFAULT_ENGINE: Optional[BatchEngine] = None
_DEFAULT_ENGINE_LOCK = threading.Lock()


def default_engine() -> BatchEngine:
    """The process-wide shared engine (lazily constructed, thread-safe).

    Double-checked locking: the fast path is one unlocked read, and the
    lock guarantees concurrent first callers all receive the same
    instance (two racing engines would each warm their own artifact
    cache and split the hit-rate statistics).
    """
    global _DEFAULT_ENGINE
    if _DEFAULT_ENGINE is None:
        with _DEFAULT_ENGINE_LOCK:
            if _DEFAULT_ENGINE is None:
                _DEFAULT_ENGINE = BatchEngine()
    return _DEFAULT_ENGINE

