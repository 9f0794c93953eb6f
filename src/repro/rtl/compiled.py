"""Compiled cache hits: one cached shape as a flat instruction tape.

The paper's Step 4 turns the schedule into a program ROM that the chip
runs as it is.  :func:`compile_program` does the same for a cached
shape's :class:`~repro.isa.microcode.ProgramTemplate`: it walks the
control words once, cycle by cycle, and resolves every register read
and forwarding path to a *slot* — the single-assignment place one
value lives in.  Slots ``0 .. len(preload) - 1`` hold the preloaded
inputs and constants; the op at tape position ``i`` writes slot
``len(preload) + i``.  Reads follow register semantics (writes land at
the end of their cycle, the last write wins), so a register-allocation
error resolves to the wrong slot and computes a wrong value, exactly as
it would on the interpreted datapath.

A mux-fed operand carries one candidate slot per leaf.  The request's
:class:`~repro.trace.tracer.ValueRecorder` names the leaf each SELECT
chose; a leaf outside the candidate set is refused.

:meth:`CompiledProgram.run` first checks that every preloaded value is
canonical (both halves in ``[0, p)``), then executes the tape with the
datapath's unit models — the multiplier's assertion-free Algorithm 2
body (:func:`~repro.rtl.multiplier.karatsuba_fp2_multiply_lean`) and
the add/sub lanes — and compares every result with the request's
recorded field-layer value, the same per-writeback golden check the
interpreted simulator makes, and every output with its recorded value.
The multiplier's widths need no per-op assertion: they are proven once
for canonical operands (:data:`~repro.rtl.multiplier.WIDTHS`), every
unit maps canonical operands to a canonical result, and every operand
is a preload or an earlier result, so vetting the preloads covers
every op.  The interpreted simulator keeps the asserting multiplier,
and a fill stores a tape only if it reproduces the interpreted run.

What depends only on the schedule and the set of mux alternatives is
proven once, in :func:`compile_program`, over every alternative: the
register-file port budget, reads of an uninitialized register, forwards
and writebacks from an idle unit, writeback labels, pipeline drain, and
outputs that are never written.  There is no code generation: the tape
is data, a few tuples per issued op.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..field.fp import P127
from ..field.fp2 import Fp2Raw
from ..isa.microcode import Operand, OperandSource, ProgramTemplate, UnitIssue
from ..trace.ops import Unit
from ..trace.tracer import ValueRecorder
from .addsub import ADDSUB_OPS, AddSubStats
from .datapath import SimulationError, SimulationResult, UnitProfile
from .multiplier import MultiplierStats, karatsuba_fp2_multiply_lean
from .regfile import RegisterFile

#: One mux-fed issue: (tape position, cycle, SELECT uids feeding it,
#: {chosen leaves: (a slot, b slot, register reads, multiplier
#: forwards, add/sub forwards)}).
MuxIssue = Tuple[int, int, Tuple[int, ...], Dict[Tuple[int, ...], Tuple[int, int, int, int, int]]]


@dataclass(frozen=True)
class CompiledProgram:
    """A cached shape's program as a golden-checked instruction tape.

    Per issued op: ``fns`` (its unit function: the lean multiplier or
    an add/sub lane), operand slots ``a`` / ``b`` and the golden uid
    ``uids``.  ``muxes`` overrides ``a`` / ``b`` per request.  The
    ``UnitProfile`` fields that do not depend on the mux routing are
    constants; register reads, forwarding uses and the per-cycle read
    peak are counted per request from the chosen candidates.
    """

    preload: Tuple[int, ...]   # slot -> the uid whose value it holds
    fns: Tuple[Callable[[Fp2Raw, Fp2Raw], Fp2Raw], ...]
    a: Tuple[int, ...]
    b: Tuple[int, ...]
    uids: Tuple[int, ...]
    muxes: Tuple[MuxIssue, ...]
    #: (name, output uid, {leaf uid: slot})
    outputs: Tuple[Tuple[str, int, Dict[int, int]], ...]
    register_count: int
    #: Routing-independent profile fields (reads/forwards of static
    #: operands only; ``max_reads_per_cycle`` over cycles without a mux).
    base: UnitProfile
    #: cycle -> register reads of its issues that have no mux operand
    mux_cycle_reads: Dict[int, int]

    def run(self, recording: ValueRecorder) -> SimulationResult:
        """Execute the tape for one request's recording.

        Raises :class:`SimulationError` on a non-canonical preload
        (before any op runs), a golden or an output mismatch, and
        ``KeyError`` when a SELECT chose a leaf outside the candidate
        set; the caller falls back to the full flow.
        """
        values = recording.values
        if recording.outputs != [uid for _, uid, _ in self.outputs]:
            raise SimulationError("recording outputs differ from the compiled program's")
        slots = [values[uid] for uid in self.preload]
        for v0, v1 in slots:
            if not (0 <= v0 < P127 and 0 <= v1 < P127):
                raise SimulationError(f"preload ({v0}, {v1}) is not canonical")
        leaf: Dict[int, int] = {}
        for sel, src in recording.chosen.items():
            leaf[sel] = leaf.get(src, src)

        base = self.base
        a = list(self.a)
        b = list(self.b)
        reads = base.rf_reads
        fwd_mult = base.forward_mult_uses
        fwd_addsub = base.forward_addsub_uses
        cycle_reads: Dict[int, int] = {}
        for pos, cycle, selects, table in self.muxes:
            a[pos], b[pos], r, fm, fs = table[tuple(leaf[s] for s in selects)]
            reads += r
            fwd_mult += fm
            fwd_addsub += fs
            cycle_reads[cycle] = cycle_reads.get(cycle, self.mux_cycle_reads[cycle]) + r

        append = slots.append
        for fn, x, y, uid in zip(self.fns, a, b, self.uids):
            value = fn(slots[x], slots[y])
            if value != values[uid]:
                raise SimulationError(
                    f"v{uid} mismatch: {value} != {values[uid]}"
                )
            append(value)

        outputs = {}
        for name, uid, cands in self.outputs:
            value = slots[cands[leaf.get(uid, uid)]]
            if value != values[uid]:
                raise SimulationError(f"output {name} diverged from the recording")
            outputs[name] = value

        max_reads = max(base.max_reads_per_cycle, *cycle_reads.values(), 0)
        profile = UnitProfile(
            cycles=base.cycles,
            mult_issues=base.mult_issues,
            addsub_issues=base.addsub_issues,
            mult_busy_cycles=base.mult_busy_cycles,
            addsub_busy_cycles=base.addsub_busy_cycles,
            forward_mult_uses=fwd_mult,
            forward_addsub_uses=fwd_addsub,
            rf_reads=reads,
            rf_writes=base.rf_writes,
            max_reads_per_cycle=max_reads,
            max_writes_per_cycle=base.max_writes_per_cycle,
        )
        return SimulationResult(
            outputs=outputs,
            cycles=base.cycles,
            mult_stats=MultiplierStats(issues=base.mult_issues),
            addsub_stats=AddSubStats(issues=base.addsub_issues),
            max_reads_per_cycle=max_reads,
            max_writes_per_cycle=base.max_writes_per_cycle,
            register_count=self.register_count,
            profile=profile,
        )


def compile_program(
    template: ProgramTemplate,
    mult_depth: int = 3,
    addsub_depth: int = 1,
    read_ports: int = RegisterFile.read_ports,
    write_ports: int = RegisterFile.write_ports,
) -> CompiledProgram:
    """Build the tape for one shape, proving its static checks.

    Walks the control words the way the interpreted simulator executes
    them, with slots in place of values.  Raises
    :class:`SimulationError` when any mux alternative would break a
    check the simulator makes (see the module docstring); such a shape
    is not compiled.
    """
    n_cycles = len(template.mult_at)
    patches = {(cyc, is_mult): slots for cyc, is_mult, slots in template.patch_groups}
    slot_uid: List[int] = []  # slot -> the uid whose value it holds
    reg: List[Optional[int]] = [None] * template.register_count  # -> slot
    for uid, r in template.preload_slots:
        reg[r] = len(slot_uid)
        slot_uid.append(uid)
    preload = tuple(slot_uid)

    fns: List[Callable] = []
    a: List[int] = []
    b: List[int] = []
    muxes: List[MuxIssue] = []
    mux_cycle_reads: Dict[int, int] = {}
    m_pipe: List[Optional[int]] = [None] * mult_depth  # slots in flight
    s_pipe: List[Optional[int]] = [None] * addsub_depth
    reads = fwd_mult = fwd_addsub = max_reads = writes = max_writes = 0
    mult_busy = addsub_busy = m_inflight = s_inflight = 0

    for cyc in range(n_cycles):
        m_out, s_out = m_pipe[-1], s_pipe[-1]
        pending = []
        for wb in template.writebacks_at[cyc]:
            slot = m_out if wb.unit is Unit.MULTIPLIER else s_out
            if slot is None:
                raise SimulationError(
                    f"cycle {cyc}: writeback from idle {wb.unit.value} unit"
                )
            if slot_uid[slot] != wb.uid:
                raise SimulationError(
                    f"cycle {cyc}: writeback of v{wb.uid} carries v{slot_uid[slot]}"
                )
            pending.append((wb.register, slot))
        if len(pending) > write_ports:
            raise SimulationError(f"cycle {cyc}: more than {write_ports} writes")
        writes += len(pending)
        max_writes = max(max_writes, len(pending))

        def route(operands: Tuple[Operand, ...]) -> Tuple[int, int, int, int, int]:
            return _route(operands, reg, m_out, s_out, cyc)

        static_reads = 0
        worst_mux_reads: Optional[int] = None  # None: no mux-fed issue
        issued: List[Optional[int]] = []  # [multiplier slot, add/sub slot]
        for is_mult, issue in ((True, template.mult_at[cyc]), (False, template.addsub_at[cyc])):
            if issue is None:
                issued.append(None)
                continue
            mux = patches.get((cyc, is_mult))
            if mux:
                table, worst = _mux_table(issue, mux, route)
                selects = tuple(dict.fromkeys(suid for _, suid, _ in mux))
                muxes.append((len(fns), cyc, selects, table))
                worst_mux_reads = (worst_mux_reads or 0) + worst
                x, y = next(iter(table.values()))[:2]
            else:
                x, y, r, fm, fs = route(issue.operands)
                static_reads += r
                fwd_mult += fm
                fwd_addsub += fs
            fns.append(karatsuba_fp2_multiply_lean if is_mult else ADDSUB_OPS[issue.kind])
            a.append(x)
            b.append(y)
            issued.append(len(slot_uid))
            slot_uid.append(issue.dest_uid)

        if static_reads + (worst_mux_reads or 0) > read_ports:
            raise SimulationError(f"cycle {cyc}: more than {read_ports} reads")
        reads += static_reads
        if worst_mux_reads is None:
            max_reads = max(max_reads, static_reads)
        else:  # the request's mux routing completes this cycle's count
            mux_cycle_reads[cyc] = static_reads

        # Occupancy, as the simulator counts it: busy while issuing or
        # draining.
        m_new, s_new = issued
        mult_busy += bool(m_inflight or m_new is not None)
        addsub_busy += bool(s_inflight or s_new is not None)
        m_inflight += (m_new is not None) - (m_out is not None)
        s_inflight += (s_new is not None) - (s_out is not None)
        m_pipe = [m_new] + m_pipe[:-1]
        s_pipe = [s_new] + s_pipe[:-1]
        for r, slot in pending:  # writes land at the end of the cycle
            reg[r] = slot

    if any(s is not None for s in m_pipe + s_pipe):
        raise SimulationError("pipeline not drained at end of program")

    outputs = []
    for name, uid, premap in template.outputs:
        if any(reg[r] is None for r in premap.values()):
            raise SimulationError(f"output {name} never written")
        outputs.append((name, uid, {leaf: reg[r] for leaf, r in premap.items()}))

    n_mult = fns.count(karatsuba_fp2_multiply_lean)
    return CompiledProgram(
        preload=preload,
        fns=tuple(fns),
        a=tuple(a),
        b=tuple(b),
        uids=tuple(slot_uid[len(preload):]),
        muxes=tuple(muxes),
        outputs=tuple(outputs),
        register_count=template.register_count,
        base=UnitProfile(
            cycles=n_cycles,
            mult_issues=n_mult,
            addsub_issues=len(fns) - n_mult,
            mult_busy_cycles=mult_busy,
            addsub_busy_cycles=addsub_busy,
            forward_mult_uses=fwd_mult,
            forward_addsub_uses=fwd_addsub,
            rf_reads=reads,
            rf_writes=writes,
            max_reads_per_cycle=max_reads,
            max_writes_per_cycle=max_writes,
        ),
        mux_cycle_reads=mux_cycle_reads,
    )


def _route(operands, reg, m_out, s_out, cyc) -> Tuple[int, int, int, int, int]:
    """One issue's operands -> (a slot, b slot, register reads,
    multiplier forwards, add/sub forwards).

    Reads of one register within an issue share a port, as in the
    simulator; a unary op reads its one operand as both slots.
    """
    slots, regs, fm, fs = [], set(), 0, 0
    for op in operands:
        if op.source is OperandSource.REGISTER:
            slot = reg[op.register]
            if slot is None:
                raise SimulationError(
                    f"cycle {cyc}: read of uninitialized register r{op.register}"
                )
            regs.add(op.register)
        elif op.source is OperandSource.FORWARD_MULT:
            slot, fm = m_out, fm + 1
        else:
            slot, fs = s_out, fs + 1
        if slot is None:
            raise SimulationError(f"cycle {cyc}: forward from idle {op.source.value}")
        slots.append(slot)
    return slots[0], slots[-1], len(regs), fm, fs


def _mux_table(issue: UnitIssue, mux, route):
    """Every leaf combination of one mux-fed issue -> its routing.

    Returns the table and the most register reads any combination
    takes (for the port-budget proof).
    """
    selects = list(dict.fromkeys(suid for _, suid, _ in mux))
    leaves = {suid: tuple(premap) for _, suid, premap in mux}
    table = {}
    for combo in itertools.product(*(leaves[s] for s in selects)):
        chosen = dict(zip(selects, combo))
        operands = list(issue.operands)
        for idx, suid, premap in mux:
            operands[idx] = premap[chosen[suid]]
        table[combo] = route(tuple(operands))
    return table, max(entry[2] for entry in table.values())
