"""Microcode assembly: schedule + allocation -> program ROM contents.

This is Step 4 of the paper's flow: "According to the scheduled
results, control signals for the datapath [are] automatically
generated."  A :class:`ControlWord` holds everything the datapath needs
in one cycle: what each functional unit issues (with operand sources:
register file ports or forwarding paths) and which results are written
back to which registers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..sched.jobshop import JobShopProblem, MuxResolution, resolve_muxes
from ..sched.schedule import Schedule
from ..trace.ops import MicroOp, OpKind, Unit
from .regalloc import Allocation, allocate_registers


class OperandSource(enum.Enum):
    """Where a unit input comes from in a given cycle."""

    REGISTER = "rf"
    FORWARD_MULT = "fwd_mult"
    FORWARD_ADDSUB = "fwd_addsub"


# Operand, UnitIssue and Writeback are NamedTuples rather than frozen
# dataclasses: an assembly builds one of each per op of a program with
# thousands of them, and tuple construction is markedly cheaper (with
# positional arguments cheaper still, hence their use on hot paths).


class Operand(NamedTuple):
    source: OperandSource
    register: int = -1  # valid when source is REGISTER

    def render(self) -> str:
        if self.source is OperandSource.REGISTER:
            return f"r{self.register}"
        return "M_out" if self.source is OperandSource.FORWARD_MULT else "S_out"


class UnitIssue(NamedTuple):
    """One functional-unit issue: the op and its operand routing."""

    kind: OpKind
    operands: Tuple[Operand, ...]
    dest_uid: int

    def render(self) -> str:
        args = ", ".join(o.render() for o in self.operands)
        return f"{self.kind.value}({args})"


class Writeback(NamedTuple):
    register: int
    unit: Unit
    uid: int


@dataclass
class ControlWord:
    """Control signals for one clock cycle."""

    cycle: int
    mult: Optional[UnitIssue] = None
    addsub: Optional[UnitIssue] = None
    writebacks: Tuple[Writeback, ...] = ()


@dataclass
class MicroProgram:
    """The assembled program: ROM image + register-file preload + outputs."""

    words: List[ControlWord]
    preload: Dict[int, Tuple[int, int]]
    register_count: int
    outputs: Dict[str, int]          # output name -> register
    golden: Dict[int, Tuple[int, int]]  # uid -> expected value (self-check)
    uid_reg: Dict[int, int]

    @property
    def cycles(self) -> int:
        return len(self.words)


def _operand_router(
    problem: JobShopProblem, done: List[int], reg_of: Dict[int, int]
) -> Callable[[int, int], Operand]:
    """(leaf uid, issue cycle) -> the :class:`Operand` carrying its value.

    A value leaving its unit in the very cycle it is read comes over
    that unit's forwarding path (when the machine forwards); any other
    comes from its register.  ``done`` is the schedule's per-task
    completion cycle.
    """
    uid_to_index = problem.uid_to_index
    on_mult = problem.on_multiplier
    forwarding = problem.machine.forwarding
    forwarded = (
        Operand(OperandSource.FORWARD_ADDSUB),
        Operand(OperandSource.FORWARD_MULT),
    )
    registers: Dict[int, Operand] = {}

    def route(leaf: int, cyc: int) -> Operand:
        producer = uid_to_index.get(leaf)
        if forwarding and producer is not None and cyc == done[producer]:
            return forwarded[on_mult[producer]]
        reg = reg_of[leaf]
        operand = registers.get(reg)
        if operand is None:
            operand = registers[reg] = Operand(OperandSource.REGISTER, reg)
        return operand

    return route


def _op_at(trace: Sequence[MicroOp], uid: int) -> MicroOp:
    """The trace op defining ``uid`` (a trace is indexed by uid)."""
    op = trace[uid]
    if op.uid != uid:
        raise ValueError(f"trace position {uid} holds v{op.uid}")
    return op


def assemble(
    problem: JobShopProblem,
    schedule: Schedule,
    trace: Sequence[MicroOp],
    outputs: Sequence[int],
    output_names: Optional[Dict[int, str]] = None,
    alloc: Optional[Allocation] = None,
    validate: bool = True,
    muxes: Optional[MuxResolution] = None,
) -> MicroProgram:
    """Assemble a validated schedule into a microprogram.

    ``alloc`` lets a caller reuse a register allocation computed for an
    earlier same-shape trace (allocation depends only on the schedule
    and the dependence structure, not on the concrete values), and
    ``validate=False`` skips re-validating a schedule already validated
    for this shape — the fast path of the serve-layer artifact cache.
    ``muxes`` is :func:`~repro.sched.jobshop.resolve_muxes` of this
    same ``trace``, when the caller has it already; ``trace`` may be
    another same-shape trace than the one ``problem`` was built from.

    Raises ScheduleError (via validate) or ValueError on inconsistency.
    """
    if validate:
        schedule.validate()
    if muxes is None:
        muxes = resolve_muxes(trace)
    if alloc is None:
        alloc = allocate_registers(problem, schedule, trace, outputs, muxes=muxes)
    reg_of = alloc.reg_of
    start = schedule.start
    done = schedule.completion()
    on_mult = problem.on_multiplier
    chosen_of = muxes.chosen
    route = _operand_router(problem, done, reg_of)

    words = [ControlWord(cycle=c) for c in range(max(done, default=0) + 1)]
    sqr = OpKind.SQR
    for t in problem.tasks:
        op = _op_at(trace, t.uid)
        cyc = start[t.index]
        srcs = op.srcs if op.kind is not sqr else (op.srcs[0], op.srcs[0])
        operands = tuple([route(chosen_of.get(s, s), cyc) for s in srcs])
        issue = UnitIssue(op.kind, operands, t.uid)
        word = words[cyc]
        if on_mult[t.index]:
            if word.mult is not None:
                raise ValueError(f"multiplier double-issue at cycle {cyc}")
            word.mult = issue
        else:
            if word.addsub is not None:
                raise ValueError(f"addsub double-issue at cycle {cyc}")
            word.addsub = issue
        wb = Writeback(reg_of[t.uid], t.unit, t.uid)
        word = words[done[t.index]]
        word.writebacks = word.writebacks + (wb,)

    names = output_names or {}
    out_map = {}
    for uid in outputs:
        name = names.get(uid) or _op_at(trace, uid).name or f"v{uid}"
        out_map[name] = reg_of[muxes.leaf(uid)]

    golden = {op.uid: op.value for op in trace}
    # Preload is rebuilt from the trace at hand (not alloc.preload):
    # with a reused same-shape allocation the register mapping carries
    # over but the concrete input/constant values belong to this trace.
    preload = {
        reg_of[op.uid]: op.value
        for op in trace
        if op.kind in (OpKind.CONST, OpKind.INPUT)
    }
    return MicroProgram(
        words=words,
        preload=preload,
        register_count=alloc.register_count,
        outputs=out_map,
        golden=golden,
        uid_reg=dict(reg_of),
    )


@dataclass
class ProgramTemplate:
    """Pre-assembled control skeleton for one workload shape.

    ``assemble`` walks every task and resolves every operand per
    request, but only SELECT-routed operands (the constant-time mux
    paths: table entry and sign choices) actually vary between requests
    of the same shape — everything else (issue slots, forwarding
    decisions, writeback registers) is a pure shape function.  A
    template captures the static skeleton once and precomputes, for
    each mux-fed operand slot, the :class:`Operand` routing for *every*
    possible mux leaf; :meth:`rebind` then reduces per-request assembly
    to following each mux's chosen chain and picking the precomputed
    routing.

    ``UnitIssue``/``Operand``/``Writeback`` are immutable, so the static
    skeleton is shared by every rebound program.
    """

    n_trace: int
    register_count: int
    mult_at: List[Optional[UnitIssue]]
    addsub_at: List[Optional[UnitIssue]]
    writebacks_at: List[Tuple[Writeback, ...]]
    #: (cycle, is_mult, ((operand_index, select_uid, {leaf_uid: Operand}), ...))
    patch_groups: List[Tuple[int, bool, Tuple[Tuple[int, int, Dict[int, Operand]], ...]]]
    preload_slots: Tuple[Tuple[int, int], ...]  # (uid, register)
    #: (name, output uid, {leaf uid: register}); one leaf unless muxed
    outputs: Tuple[Tuple[str, int, Dict[int, int]], ...]
    reg_of: Dict[int, int]

    def rebind(self, trace: Sequence[MicroOp]) -> MicroProgram:
        """Assemble a program for a new same-shape trace.

        Raises ValueError on a length mismatch and KeyError when a mux
        resolves to a leaf outside the precomputed set — both signal a
        shape mismatch; callers (the flow's cached fast path) catch
        them and fall back to the full flow.
        """
        if len(trace) != self.n_trace:
            raise ValueError(
                f"trace has {len(trace)} ops, template expects {self.n_trace}"
            )
        mult_at = list(self.mult_at)
        addsub_at = list(self.addsub_at)
        select = OpKind.SELECT
        for cyc, is_mult, slots in self.patch_groups:
            arr = mult_at if is_mult else addsub_at
            base = arr[cyc]
            operands = list(base.operands)
            for idx, suid, premap in slots:
                op = trace[suid]
                while op.kind is select:
                    op = trace[op.srcs[0]]
                operands[idx] = premap[op.uid]
            arr[cyc] = UnitIssue(
                kind=base.kind, operands=tuple(operands), dest_uid=base.dest_uid
            )
        words = [
            ControlWord(cycle=c, mult=m, addsub=a, writebacks=w)
            for c, (m, a, w) in enumerate(
                zip(mult_at, addsub_at, self.writebacks_at)
            )
        ]
        outputs = {}
        for name, uid, premap in self.outputs:
            op = trace[uid]
            while op.kind is select:
                op = trace[op.srcs[0]]
            outputs[name] = premap[op.uid]
        return MicroProgram(
            words=words,
            preload={reg: trace[uid].value for uid, reg in self.preload_slots},
            register_count=self.register_count,
            outputs=outputs,
            golden={op.uid: op.value for op in trace},
            uid_reg=self.reg_of,
        )


def build_template(
    problem: JobShopProblem,
    schedule: Schedule,
    trace: Sequence[MicroOp],
    outputs: Sequence[int],
    alloc: Allocation,
    output_names: Optional[Dict[int, str]] = None,
    muxes: Optional[MuxResolution] = None,
) -> ProgramTemplate:
    """Build a :class:`ProgramTemplate` from one solved shape instance.

    The reference ``trace`` only contributes structure; ``rebind`` with
    the same trace reproduces byte-for-byte what :func:`assemble` emits
    for it (the microcode equivalence test pins this down).  ``muxes``
    is :func:`~repro.sched.jobshop.resolve_muxes` of this same
    ``trace``, when the caller has it already.
    """
    if muxes is None:
        muxes = resolve_muxes(trace)
    reg_of = alloc.reg_of
    start = schedule.start
    done = schedule.completion()
    on_mult = problem.on_multiplier
    chosen_of = muxes.chosen
    alternatives_of = muxes.alternatives
    route = _operand_router(problem, done, reg_of)
    n_cycles = max(done, default=0) + 1

    mult_at: List[Optional[UnitIssue]] = [None] * n_cycles
    addsub_at: List[Optional[UnitIssue]] = [None] * n_cycles
    wb_lists: List[List[Writeback]] = [[] for _ in range(n_cycles)]
    patch_groups: List[
        Tuple[int, bool, Tuple[Tuple[int, int, Dict[int, Operand]], ...]]
    ] = []

    sqr = OpKind.SQR
    for t in problem.tasks:
        op = _op_at(trace, t.uid)
        cyc = start[t.index]
        srcs = op.srcs if op.kind is not sqr else (op.srcs[0], op.srcs[0])
        operands: List[Operand] = []
        slots: List[Tuple[int, int, Dict[int, Operand]]] = []
        for i, s in enumerate(srcs):
            alternatives = alternatives_of.get(s)
            if alternatives is not None:  # a SELECT: route every leaf
                premap = {leaf: route(leaf, cyc) for leaf in alternatives}
                operands.append(premap[chosen_of[s]])
                slots.append((i, s, premap))
            else:
                operands.append(route(s, cyc))
        issue = UnitIssue(op.kind, tuple(operands), t.uid)
        is_mult = on_mult[t.index]
        arr = mult_at if is_mult else addsub_at
        if arr[cyc] is not None:
            raise ValueError(
                f"{'multiplier' if is_mult else 'addsub'} double-issue at cycle {cyc}"
            )
        arr[cyc] = issue
        if slots:
            patch_groups.append((cyc, is_mult, tuple(slots)))
        wb_lists[done[t.index]].append(Writeback(reg_of[t.uid], t.unit, t.uid))

    names = output_names or {}
    out_routes = tuple(
        (
            names.get(uid) or _op_at(trace, uid).name or f"v{uid}",
            uid,
            {leaf: reg_of[leaf] for leaf in muxes.leaves(uid)},
        )
        for uid in outputs
    )

    preload_slots = tuple(
        (op.uid, reg_of[op.uid])
        for op in trace
        if op.kind in (OpKind.CONST, OpKind.INPUT)
    )
    return ProgramTemplate(
        n_trace=len(trace),
        register_count=alloc.register_count,
        mult_at=mult_at,
        addsub_at=addsub_at,
        writebacks_at=[tuple(w) for w in wb_lists],
        patch_groups=patch_groups,
        preload_slots=preload_slots,
        outputs=out_routes,
        reg_of=dict(reg_of),
    )
