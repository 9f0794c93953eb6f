"""Job-shop formulation of the instruction-scheduling problem.

The paper (Section III-C) casts microinstruction scheduling as a
job-shop problem: tasks = F_{p^2} micro-ops, machines = the two
functional units (pipelined multiplier, adder/subtractor), precedences
= data dependencies, objective = makespan.  This module defines the
problem model shared by all schedulers, including the datapath resource
constraints beyond the plain job-shop:

* the multiplier is **pipelined**: one issue per cycle (initiation
  interval 1) but results appear ``mult_latency`` cycles later;
* the adder/subtractor likewise with ``addsub_latency``;
* the register file has 4 read and 2 write ports per cycle (Fig. 1);
* forwarding paths let an operand produced in cycle ``t`` be consumed
  by an op issued in cycle ``t`` without using a read port.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..trace.ops import UNIT_OF, MicroOp, OpKind, Unit


@dataclass(frozen=True)
class MachineSpec:
    """Datapath timing and port model.

    Default latencies: the pipelined Karatsuba multiplier needs three
    cycles from issue to writeback (partial products, accumulation,
    lazy-reduction fold — Fig. 1(b)); the adder/subtractor completes in
    one.  With these defaults the optimally scheduled double-and-add
    kernel occupies 24 issue cycles + 1 writeback row, matching the
    25-cycle schedule of the paper's Table I.
    """

    mult_latency: int = 3
    addsub_latency: int = 1
    read_ports: int = 4
    write_ports: int = 2
    forwarding: bool = True

    def latency(self, unit: Unit) -> int:
        if unit is Unit.MULTIPLIER:
            return self.mult_latency
        if unit is Unit.ADDSUB:
            return self.addsub_latency
        return 0


class Task(NamedTuple):
    """One schedulable micro-op.

    ``deps`` are indices (into the problem's task list) of the tasks
    whose results must be *available* before this op can issue — for an
    operand routed through a constant-time mux (SELECT) this includes
    every mux alternative, because the mux output only settles when all
    inputs have.  ``reads`` are the task indices actually fetched
    through register-file read ports (one per operand: the selected mux
    input); ``external_reads`` counts operand slots fed by constants or
    preloaded inputs (they also occupy read ports).  Operands from
    constants or inputs impose no precedence.

    A NamedTuple, like :class:`~repro.trace.ops.MicroOp` and for the
    same reason: a full program builds thousands per flow, and tuple
    construction is markedly cheaper than a frozen dataclass's.
    """

    index: int
    uid: int          # original trace uid
    unit: Unit
    deps: Tuple[int, ...]
    kind: OpKind
    reads: Tuple[int, ...] = ()
    external_reads: int = 0
    name: str = ""


@dataclass
class JobShopProblem:
    """An instruction-scheduling instance."""

    tasks: List[Task]
    machine: MachineSpec = field(default_factory=MachineSpec)
    # uid -> task index, for traceability back to the original program
    uid_to_index: Dict[int, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.tasks)

    # Per-task tables, computed once: a problem's tasks and machine are
    # fixed once it is built.
    @cached_property
    def latencies(self) -> List[int]:
        """``latencies[i]``: cycles from task i's issue to its result."""
        lat = self.machine.latency
        return [lat(t.unit) for t in self.tasks]

    @cached_property
    def on_multiplier(self) -> List[bool]:
        """``on_multiplier[i]``: task i issues to the multiplier."""
        mult = Unit.MULTIPLIER
        return [t.unit is mult for t in self.tasks]

    def fingerprint(self) -> str:
        """Deterministic digest of the problem *shape*.

        Covers everything a scheduler's output depends on — task units,
        op kinds, the dependence DAG, and the machine model — but not
        the concrete data values or the mux-selected ``reads`` (which
        vary with the scalar while the shape stays fixed).  Two traces
        of the same workload shape hash identically, which is what lets
        a flow-artifact cache reuse one schedule across requests.
        """
        import hashlib

        h = hashlib.sha256()
        m = self.machine
        h.update(
            f"machine:{m.mult_latency},{m.addsub_latency},{m.read_ports},"
            f"{m.write_ports},{int(m.forwarding)};".encode()
        )
        for t in self.tasks:
            h.update(
                f"{t.index}:{t.unit.value}:{t.kind.value}:"
                f"{','.join(map(str, t.deps))}:{t.external_reads};".encode()
            )
        return h.hexdigest()

    def unit_load(self, unit: Unit) -> int:
        """Number of tasks on one machine — a trivial makespan bound."""
        return sum(1 for t in self.tasks if t.unit is unit)

    def successors(self) -> List[List[int]]:
        out: List[List[int]] = [[] for _ in self.tasks]
        for t in self.tasks:
            for d in t.deps:
                out[d].append(t.index)
        return out

    def critical_path_bound(self) -> int:
        """Longest dependency chain in cycles (a makespan lower bound)."""
        lat = self.latencies
        longest = [0] * len(self.tasks)
        for t in self.tasks:  # tasks are in topological (trace) order
            start = 0
            for d in t.deps:
                start = max(start, longest[d])
            longest[t.index] = start + lat[t.index]
        return max(longest, default=0)

    def lower_bound(self) -> int:
        """max(critical path, per-unit load + drain latency)."""
        lb = self.critical_path_bound()
        for unit in (Unit.MULTIPLIER, Unit.ADDSUB):
            load = self.unit_load(unit)
            if load:
                lb = max(lb, load - 1 + self.machine.latency(unit))
        return lb


@dataclass(frozen=True)
class MuxResolution:
    """Where every SELECT of one trace routes its operand.

    ``chosen[uid]`` is the concrete uid a SELECT (or a chain of them)
    passes through; ``alternatives[uid]`` every concrete uid it may
    pass, first-seen order, without repeats.  Only SELECT uids appear:
    any other uid stands for itself (:meth:`leaf` / :meth:`leaves`).
    A resolution describes the trace it was built from and no other —
    a same-shape trace of another scalar chooses differently.
    """

    chosen: Dict[int, int]
    alternatives: Dict[int, Tuple[int, ...]]

    def leaf(self, uid: int) -> int:
        """The concrete uid an operand is read from."""
        return self.chosen.get(uid, uid)

    def leaves(self, uid: int) -> Tuple[int, ...]:
        """Every concrete uid an operand may come from (mux alternatives)."""
        return self.alternatives.get(uid, (uid,))


def resolve_muxes(trace: Sequence[MicroOp]) -> MuxResolution:
    """Resolve every SELECT of ``trace`` once, each from its sources'."""
    select = OpKind.SELECT
    srcs_of = {op.uid: op.srcs for op in trace if op.kind is select}
    chosen: Dict[int, int] = {}
    alternatives: Dict[int, Tuple[int, ...]] = {}

    def resolve(uid: int) -> None:
        srcs = srcs_of[uid]
        leaves: List[int] = []
        for s in srcs:
            if s in srcs_of:
                if s not in alternatives:
                    resolve(s)
                leaves.extend(alternatives[s])
            else:
                leaves.append(s)
        first = srcs[0]
        chosen[uid] = chosen.get(first, first)
        alternatives[uid] = tuple(dict.fromkeys(leaves))

    for uid in srcs_of:
        if uid not in alternatives:
            resolve(uid)
    return MuxResolution(chosen=chosen, alternatives=alternatives)


def problem_from_trace(
    trace: Sequence[MicroOp],
    machine: Optional[MachineSpec] = None,
    start: int = 0,
    end: Optional[int] = None,
    muxes: Optional[MuxResolution] = None,
) -> JobShopProblem:
    """Build a scheduling problem from (a slice of) a recorded trace.

    Only arithmetic ops become tasks.  A dependency on a value defined
    outside the slice (an earlier section's result, a constant, an
    input) is treated as already available — matching how the hardware
    schedules a block whose live-ins sit in the register file.  SELECT
    pseudo-ops contribute timing dependencies on every alternative but
    only one register read (the mux is wiring, not a unit).  ``muxes``
    is :func:`resolve_muxes` of this same ``trace``, when the caller
    has it already.
    """
    machine = machine or MachineSpec()
    end = len(trace) if end is None else end
    if muxes is None:
        muxes = resolve_muxes(trace)
    chosen_of = muxes.chosen
    alternatives_of = muxes.alternatives
    unit_of = UNIT_OF
    no_unit = Unit.NONE
    tasks: List[Task] = []
    uid_to_index: Dict[int, int] = {}
    index_of = uid_to_index.get
    for op in trace[start:end]:
        unit = unit_of[op.kind]
        if unit is no_unit:
            continue
        dep_set = set()
        reads: List[int] = []
        external = 0
        for s in op.srcs:
            alts = alternatives_of.get(s)
            if alts is None:  # a plain operand: its own producer, if any
                idx = index_of(s)
                if idx is not None:
                    dep_set.add(idx)
            else:  # a mux: wait for every alternative, read the chosen one
                for alt in alts:
                    alt_idx = index_of(alt)
                    if alt_idx is not None:
                        dep_set.add(alt_idx)
                idx = index_of(chosen_of[s])
            if idx is None:
                external += 1
            else:
                reads.append(idx)
        idx = len(tasks)
        # Positional: markedly cheaper than keywords for a NamedTuple.
        tasks.append(
            Task(
                idx, op.uid, unit, tuple(sorted(dep_set)), op.kind,
                tuple(reads), external, op.name,
            )
        )
        uid_to_index[op.uid] = idx
    return JobShopProblem(tasks=tasks, machine=machine, uid_to_index=uid_to_index)
