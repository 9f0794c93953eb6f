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
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sched.jobshop import JobShopProblem
from ..sched.schedule import Schedule
from ..trace.ops import MicroOp, OpKind, Unit
from .regalloc import Allocation, allocate_registers


class OperandSource(enum.Enum):
    """Where a unit input comes from in a given cycle."""

    REGISTER = "rf"
    FORWARD_MULT = "fwd_mult"
    FORWARD_ADDSUB = "fwd_addsub"


@dataclass(frozen=True)
class Operand:
    source: OperandSource
    register: int = -1  # valid when source is REGISTER

    def render(self) -> str:
        if self.source is OperandSource.REGISTER:
            return f"r{self.register}"
        return "M_out" if self.source is OperandSource.FORWARD_MULT else "S_out"


@dataclass(frozen=True)
class UnitIssue:
    """One functional-unit issue: the op and its operand routing."""

    kind: OpKind
    operands: Tuple[Operand, ...]
    dest_uid: int

    def render(self) -> str:
        args = ", ".join(o.render() for o in self.operands)
        return f"{self.kind.value}({args})"


@dataclass(frozen=True)
class Writeback:
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

    @property
    def rom_bits_per_word(self) -> int:
        """Width of one control word in the program ROM.

        Fields: 2 unit enables + 2x2 operand source selects (2 bits) +
        4 read addresses + 3-bit addsub opcode + 2 writeback enables +
        2 write addresses.
        """
        addr = max(1, math.ceil(math.log2(max(self.register_count, 2))))
        return 2 + 4 * 2 + 4 * addr + 3 + 2 + 2 * addr

    @property
    def rom_kilobits(self) -> float:
        return self.cycles * self.rom_bits_per_word / 1000.0


def assemble(
    problem: JobShopProblem,
    schedule: Schedule,
    trace: Sequence[MicroOp],
    outputs: Sequence[int],
    output_names: Optional[Dict[int, str]] = None,
    alloc: Optional[Allocation] = None,
    validate: bool = True,
) -> MicroProgram:
    """Assemble a validated schedule into a microprogram.

    ``alloc`` lets a caller reuse a register allocation computed for an
    earlier same-shape trace (allocation depends only on the schedule
    and the dependence structure, not on the concrete values), and
    ``validate=False`` skips re-validating a schedule already validated
    for this shape — the fast path of the serve-layer artifact cache.

    Raises ScheduleError (via validate) or ValueError on inconsistency.
    """
    from ..sched.jobshop import resolve_select_chosen

    if validate:
        schedule.validate()
    if alloc is None:
        alloc = allocate_registers(problem, schedule, trace, outputs)
    lat = problem.machine.latency
    start = schedule.start
    op_of_uid = {op.uid: op for op in trace}

    n_cycles = schedule.makespan + 1
    words = [ControlWord(cycle=c) for c in range(n_cycles)]

    unit_result_uid: Dict[Tuple[Unit, int], int] = {}
    for t in problem.tasks:
        unit_result_uid[(t.unit, start[t.index] + lat(t.unit))] = t.uid

    for t in problem.tasks:
        op = op_of_uid[t.uid]
        cyc = start[t.index]
        operands: List[Operand] = []
        srcs = op.srcs if op.kind not in (OpKind.SQR,) else (op.srcs[0], op.srcs[0])
        for s in srcs:
            s = resolve_select_chosen(op_of_uid, s)
            producer_idx = problem.uid_to_index.get(s)
            if producer_idx is not None:
                p_unit = problem.tasks[producer_idx].unit
                avail = start[producer_idx] + lat(p_unit)
                if problem.machine.forwarding and cyc == avail:
                    operands.append(
                        Operand(
                            source=OperandSource.FORWARD_MULT
                            if p_unit is Unit.MULTIPLIER
                            else OperandSource.FORWARD_ADDSUB
                        )
                    )
                    continue
            operands.append(
                Operand(source=OperandSource.REGISTER, register=alloc.reg_of[s])
            )
        issue = UnitIssue(kind=op.kind, operands=tuple(operands), dest_uid=t.uid)
        word = words[cyc]
        if t.unit is Unit.MULTIPLIER:
            if word.mult is not None:
                raise ValueError(f"multiplier double-issue at cycle {cyc}")
            word.mult = issue
        else:
            if word.addsub is not None:
                raise ValueError(f"addsub double-issue at cycle {cyc}")
            word.addsub = issue
        wb_cycle = cyc + lat(t.unit)
        wb = Writeback(register=alloc.reg_of[t.uid], unit=t.unit, uid=t.uid)
        words[wb_cycle].writebacks = words[wb_cycle].writebacks + (wb,)

    names = output_names or {}
    out_map = {}
    for uid in outputs:
        name = names.get(uid) or op_of_uid[uid].name or f"v{uid}"
        out_map[name] = alloc.reg_of[resolve_select_chosen(op_of_uid, uid)]

    golden = {op.uid: op.value for op in trace}
    # Preload is rebuilt from the trace at hand (not alloc.preload):
    # with a reused same-shape allocation the register mapping carries
    # over but the concrete input/constant values belong to this trace.
    preload = {
        alloc.reg_of[op.uid]: op.value
        for op in trace
        if op.kind in (OpKind.CONST, OpKind.INPUT)
    }
    return MicroProgram(
        words=words,
        preload=preload,
        register_count=alloc.register_count,
        outputs=out_map,
        golden=golden,
        uid_reg=dict(alloc.reg_of),
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

    ``UnitIssue``/``Operand``/``Writeback`` are frozen, so the static
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
) -> ProgramTemplate:
    """Build a :class:`ProgramTemplate` from one solved shape instance.

    The reference ``trace`` only contributes structure; ``rebind`` with
    the same trace reproduces byte-for-byte what :func:`assemble` emits
    for it (the microcode equivalence test pins this down).
    """
    from ..sched.jobshop import resolve_select_all, resolve_select_chosen

    by_uid = {op.uid: op for op in trace}
    lat = problem.machine.latency
    start = schedule.start
    n_cycles = schedule.makespan + 1

    def operand_for(leaf: int, cyc: int) -> Operand:
        producer_idx = problem.uid_to_index.get(leaf)
        if producer_idx is not None:
            p_unit = problem.tasks[producer_idx].unit
            if problem.machine.forwarding and cyc == start[producer_idx] + lat(p_unit):
                return Operand(
                    source=OperandSource.FORWARD_MULT
                    if p_unit is Unit.MULTIPLIER
                    else OperandSource.FORWARD_ADDSUB
                )
        return Operand(source=OperandSource.REGISTER, register=alloc.reg_of[leaf])

    mult_at: List[Optional[UnitIssue]] = [None] * n_cycles
    addsub_at: List[Optional[UnitIssue]] = [None] * n_cycles
    wb_lists: List[List[Writeback]] = [[] for _ in range(n_cycles)]
    patch_groups: List[
        Tuple[int, bool, Tuple[Tuple[int, int, Dict[int, Operand]], ...]]
    ] = []

    for t in problem.tasks:
        op = by_uid[t.uid]
        cyc = start[t.index]
        srcs = op.srcs if op.kind is not OpKind.SQR else (op.srcs[0], op.srcs[0])
        operands: List[Operand] = []
        slots: List[Tuple[int, int, Dict[int, Operand]]] = []
        for i, s in enumerate(srcs):
            if by_uid[s].kind is OpKind.SELECT:
                premap = {
                    leaf: operand_for(leaf, cyc)
                    for leaf in resolve_select_all(by_uid, s)
                }
                operands.append(premap[resolve_select_chosen(by_uid, s)])
                slots.append((i, s, premap))
            else:
                operands.append(operand_for(s, cyc))
        issue = UnitIssue(kind=op.kind, operands=tuple(operands), dest_uid=t.uid)
        is_mult = t.unit is Unit.MULTIPLIER
        arr = mult_at if is_mult else addsub_at
        if arr[cyc] is not None:
            raise ValueError(
                f"{'multiplier' if is_mult else 'addsub'} double-issue at cycle {cyc}"
            )
        arr[cyc] = issue
        if slots:
            patch_groups.append((cyc, is_mult, tuple(slots)))
        wb_lists[cyc + lat(t.unit)].append(
            Writeback(register=alloc.reg_of[t.uid], unit=t.unit, uid=t.uid)
        )

    names = output_names or {}
    out_routes = tuple(
        (
            names.get(uid) or by_uid[uid].name or f"v{uid}",
            uid,
            {leaf: alloc.reg_of[leaf] for leaf in resolve_select_all(by_uid, uid)},
        )
        for uid in outputs
    )

    preload_slots = tuple(
        (op.uid, alloc.reg_of[op.uid])
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
        reg_of=dict(alloc.reg_of),
    )
