"""Flow-artifact cache: pay the job-shop solve once per workload shape.

The expensive stages of the design flow — building the scheduling
problem, solving it, and allocating registers — depend only on the
workload *shape* (the micro-op DAG structure and the machine model),
not on the concrete scalar or point.  FourQ's constant-time recoding
guarantees that every 256-bit scalar produces the same shape: the same
op sequence, the same dependencies, the same 64-iteration loop.  This
module memoizes those per-shape artifacts behind an LRU bound, so a
batch of N requests pays one solve + N runs of the shape's compiled
instruction tape (:class:`~repro.rtl.compiled.CompiledProgram`), fed
by each request's value-only recording, which the shape's
:class:`~repro.trace.replay.Replay` computes from the cached trace.
The cache keeps no counters: ``run_flow`` records each hit, miss, fallback and eviction in
``repro_cache_events_total`` where it decides the path.

Soundness does not rest on the key: every tape run still golden-checks
each op's result and each output against the request's recorded
values, so a stale or colliding entry is detected and recomputed
(counted as a fallback), never silently wrong.  An entry is stored
only after its tape reproduced the interpreted simulation of the
filling request, and, where the shape has a replay, only after the
replay's select map and its recording of the filling request passed
their checks.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..isa.fsm import FSMController
from ..isa.microcode import ProgramTemplate
from ..isa.regalloc import Allocation
from ..rtl.compiled import CompiledProgram
from ..sched.jobshop import JobShopProblem, MachineSpec
from ..sched.schedule import Schedule
from ..trace.ops import MicroOp, OpKind
from ..trace.program import TraceProgram
from ..trace.replay import Replay


def trace_shape_key(
    trace: Sequence[MicroOp],
    machine: MachineSpec,
    scheduler: str,
    optimize: str = "none",
) -> str:
    """Canonical digest of a trace's structure (values excluded).

    Two traces of the same workload — any scalar, any point — hash
    identically: op kinds and dependency uids are emission-order stable,
    and SELECT sources (whose order encodes the data-dependent chosen
    alternative) are sorted before hashing.

    ``scheduler="auto"`` is resolved to its concrete choice *before*
    keying, so an ``"auto"`` request and the equivalent explicit request
    share one entry (they produce byte-identical artifacts).  The
    ``optimize`` level is folded into the digest: the optimizer rewrites
    the scheduled shape, so artifacts must never cross levels.
    """
    if scheduler == "auto":
        from ..flow import AUTO_CP_MAX_OPS

        arith = sum(1 for op in trace if op.is_arithmetic)
        scheduler = "cp" if arith <= AUTO_CP_MAX_OPS else "list"
    select = OpKind.SELECT
    parts = [
        f"machine:{machine.mult_latency},{machine.addsub_latency},"
        f"{machine.read_ports},{machine.write_ports},"
        f"{int(machine.forwarding)};sched:{scheduler};opt:{optimize}"
    ]
    # One string-build + one hash update: this runs per request on the
    # serving hot path, so per-op update() calls are avoided.
    parts.extend(
        op.kind.value + str(tuple(sorted(op.srcs)) if op.kind is select else op.srcs)
        for op in trace
    )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


@dataclass
class FlowArtifacts:
    """The per-shape artifacts the cache carries between requests.

    ``problem`` / ``schedule`` / ``alloc`` are reused directly (they are
    shape functions); ``template`` is the pre-assembled control skeleton
    whose :meth:`~repro.isa.microcode.ProgramTemplate.rebind` turns a
    same-shape trace into a full microprogram on demand; ``compiled``
    is the tape every hit runs, built from ``template``; ``replay``
    (for the scalar-multiplication shapes) recomputes a hit's golden
    values from the cached trace, instead of re-running the curve code;
    ``fsm`` keeps
    the controller geometry of the first assembly, whose ROM dimensions
    are shape-invariant even though the per-request ROM contents differ
    with the mux routing.
    """

    key: str
    problem: JobShopProblem
    schedule: Schedule
    alloc: Allocation
    fsm: FSMController
    schedule_hash: str
    template: ProgramTemplate
    compiled: CompiledProgram
    replay: Optional[Replay] = None


@dataclass
class FlowArtifactCache:
    """LRU-bounded cache of :class:`FlowArtifacts` keyed by shape digest.

    Thread-safe: every mutation of the LRU order runs under one
    re-entrant lock, so concurrent ``get``/``put`` from a
    multi-threaded server cannot corrupt the ``OrderedDict``.  The lock
    is process-local and excluded from pickling (each worker process
    owns its own cache).
    """

    max_entries: int = 16
    _entries: "OrderedDict[str, FlowArtifacts]" = field(default_factory=OrderedDict)
    _lock: threading.RLock = field(
        default_factory=threading.RLock, repr=False, compare=False
    )

    def __getstate__(self) -> Dict:
        state = self.__dict__.copy()
        del state["_lock"]  # locks don't pickle; restored fresh below
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def key_for(
        self,
        trace_program: TraceProgram,
        machine: Optional[MachineSpec] = None,
        scheduler: str = "auto",
        optimize: str = "none",
    ) -> str:
        return trace_shape_key(
            trace_program.tracer.trace, machine or MachineSpec(), scheduler, optimize
        )

    def get(self, key: str) -> Optional[FlowArtifacts]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, entry: FlowArtifacts) -> int:
        """Insert ``entry`` as most recent; return how many were evicted."""
        with self._lock:
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            evicted = max(0, len(self._entries) - self.max_entries)
            for _ in range(evicted):
                self._entries.popitem(last=False)
            return evicted

    def invalidate(self, key: str) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
