"""Cycle-accurate datapath simulator.

Executes an assembled :class:`repro.isa.microcode.MicroProgram` on the
modeled datapath of Fig. 1: register file (4R/2W), pipelined Karatsuba
multiplier, adder/subtractor, forwarding paths, and the FSM sequencer
(here: the program counter walking the control words).

Every writeback is checked against the golden value recorded in the
trace, so a passing simulation is a cycle-by-cycle, bit-exact proof
that the scheduled microprogram computes what the Python specification
computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..field.fp2 import Fp2Raw
from ..isa.microcode import MicroProgram, OperandSource, UnitIssue
from ..trace.ops import OpKind, Unit
from .addsub import AddSubStats, AddSubUnit
from .multiplier import MultiplierStats, PipelinedMultiplier
from .regfile import RegisterFile


class SimulationError(RuntimeError):
    """The simulation diverged from the golden trace or misbehaved."""


@dataclass
class UnitProfile:
    """Per-unit occupancy counters for one simulated program.

    The figures the paper's Table I justifies its datapath with:
    ``*_issues`` counts cycles a unit accepted a new operation,
    ``*_busy_cycles`` counts cycles the unit had *any* operation in
    flight (a depth-3 multiplier stays busy draining), forwarding uses
    count operands taken from a unit output instead of a register-file
    port, and the read/write totals give average port pressure.
    """

    cycles: int = 0
    mult_issues: int = 0
    addsub_issues: int = 0
    mult_busy_cycles: int = 0
    addsub_busy_cycles: int = 0
    forward_mult_uses: int = 0
    forward_addsub_uses: int = 0
    rf_reads: int = 0
    rf_writes: int = 0
    max_reads_per_cycle: int = 0
    max_writes_per_cycle: int = 0

    @property
    def mult_utilization(self) -> float:
        """Fraction of cycles the multiplier accepted a new issue."""
        return self.mult_issues / self.cycles if self.cycles else 0.0

    @property
    def addsub_utilization(self) -> float:
        return self.addsub_issues / self.cycles if self.cycles else 0.0

    @property
    def schedule_density(self) -> float:
        """Issue slots filled over slots available (both units).

        Directly comparable to the paper's Table I schedule density:
        each cycle offers one multiplier and one add-sub issue slot.
        """
        return (
            (self.mult_issues + self.addsub_issues) / (2 * self.cycles)
            if self.cycles
            else 0.0
        )

    def merge(self, other: "UnitProfile") -> None:
        """Accumulate another run's profile (sums; port maxes by max)."""
        self.cycles += other.cycles
        self.mult_issues += other.mult_issues
        self.addsub_issues += other.addsub_issues
        self.mult_busy_cycles += other.mult_busy_cycles
        self.addsub_busy_cycles += other.addsub_busy_cycles
        self.forward_mult_uses += other.forward_mult_uses
        self.forward_addsub_uses += other.forward_addsub_uses
        self.rf_reads += other.rf_reads
        self.rf_writes += other.rf_writes
        self.max_reads_per_cycle = max(
            self.max_reads_per_cycle, other.max_reads_per_cycle
        )
        self.max_writes_per_cycle = max(
            self.max_writes_per_cycle, other.max_writes_per_cycle
        )


@dataclass
class SimulationResult:
    outputs: Dict[str, Fp2Raw]
    cycles: int
    mult_stats: MultiplierStats
    addsub_stats: AddSubStats
    max_reads_per_cycle: int
    max_writes_per_cycle: int
    register_count: int
    profile: Optional[UnitProfile] = None


class DatapathSimulator:
    """Executes microprograms cycle by cycle.

    The simulator owns its datapath components (register file, pipelined
    multiplier, adder/subtractor) and resets them between runs, so a
    batch engine can stream many programs through one instance without
    paying re-construction per request.  :meth:`reset` restores the
    power-on state; :meth:`run` calls it automatically, making two
    back-to-back runs on one simulator bit-identical to two runs on
    fresh simulators.
    """

    def __init__(self, mult_depth: int = 3, addsub_depth: int = 1):
        self.mult_depth = mult_depth
        self.addsub_depth = addsub_depth
        self._rf = RegisterFile(size=0)
        self._mult = PipelinedMultiplier(depth=mult_depth)
        self._addsub = AddSubUnit(depth=addsub_depth)

    def reset(self, register_count: Optional[int] = None) -> None:
        """Restore register-file and pipeline state to power-on.

        Clears every register, flushes both unit pipelines, and zeroes
        the statistics counters.  ``register_count`` resizes the
        register file for the next program (reusing storage when the
        size is unchanged).
        """
        self._rf.reset(register_count)
        self._mult.reset()
        self._addsub.reset()

    def run(self, program: MicroProgram) -> SimulationResult:
        self.reset(program.register_count)
        rf = self._rf
        rf.preload(program.preload)
        mult = self._mult
        addsub = self._addsub

        golden = program.golden
        register_src = OperandSource.REGISTER
        forward_mult = OperandSource.FORWARD_MULT
        unary_kinds = (OpKind.NEG, OpKind.CONJ)

        # Per-unit occupancy accounting, kept in locals so the per-cycle
        # cost is a handful of integer ops (the profile feeds the
        # pipeline-utilization metrics; see repro.obs).
        fwd_uses = [0, 0]  # [multiplier forwards, addsub forwards]
        mult_issues = addsub_issues = 0
        mult_busy = addsub_busy = 0
        m_inflight = s_inflight = 0

        # Operand gathering with per-issue register dedup (a squaring
        # fans one read port out to both multiplier inputs).
        def gather(issue: UnitIssue, m_out, s_out, cycle: int) -> List[Fp2Raw]:
            vals: List[Fp2Raw] = []
            seen: Dict[int, Fp2Raw] = {}
            for op in issue.operands:
                if op.source is register_src:
                    if op.register in seen:
                        vals.append(seen[op.register])
                    else:
                        v = rf.read(op.register)
                        seen[op.register] = v
                        vals.append(v)
                elif op.source is forward_mult:
                    if m_out is None:
                        raise SimulationError(
                            f"cycle {cycle}: forward from idle multiplier"
                        )
                    fwd_uses[0] += 1
                    vals.append(m_out)
                else:
                    if s_out is None:
                        raise SimulationError(
                            f"cycle {cycle}: forward from idle addsub"
                        )
                    fwd_uses[1] += 1
                    vals.append(s_out)
            return vals

        for word in program.words:
            rf.begin_cycle()
            # Values leaving the units this cycle (available for
            # forwarding and for writeback).
            m_out = mult._pipe[-1]
            s_out = addsub._pipe[-1]

            # Writebacks happen from the unit outputs.
            for wb in word.writebacks:
                value = m_out if wb.unit is Unit.MULTIPLIER else s_out
                if value is None:
                    raise SimulationError(
                        f"cycle {word.cycle}: writeback from idle "
                        f"{wb.unit.value} unit"
                    )
                if value != golden[wb.uid]:
                    raise SimulationError(
                        f"cycle {word.cycle}: v{wb.uid} mismatch: "
                        f"{value} != {golden[wb.uid]}"
                    )
                rf.write(wb.register, value)

            mult_issue = None
            if word.mult is not None:
                a, b = gather(word.mult, m_out, s_out, word.cycle)
                mult_issue = (a, b)
            addsub_issue = None
            if word.addsub is not None:
                vals = gather(word.addsub, m_out, s_out, word.cycle)
                kind = word.addsub.kind
                if kind in unary_kinds:
                    addsub_issue = (kind, vals[0], None)
                else:
                    addsub_issue = (kind, vals[0], vals[1])

            # Occupancy: a unit is busy any cycle with an op in flight
            # (issuing, or draining its pipeline).
            issued_m = mult_issue is not None
            issued_s = addsub_issue is not None
            mult_issues += issued_m
            addsub_issues += issued_s
            if m_inflight or issued_m:
                mult_busy += 1
            if s_inflight or issued_s:
                addsub_busy += 1
            m_inflight += issued_m - (m_out is not None)
            s_inflight += issued_s - (s_out is not None)

            mult.tick(mult_issue)
            addsub.tick(addsub_issue)
            rf.end_cycle()

        if mult.busy or addsub.busy:
            raise SimulationError("pipeline not drained at end of program")

        outputs = {}
        for name, reg in program.outputs.items():
            val = rf.peek(reg)
            if val is None:
                raise SimulationError(f"output {name} (r{reg}) never written")
            outputs[name] = val
        profile = UnitProfile(
            cycles=len(program.words),
            mult_issues=mult_issues,
            addsub_issues=addsub_issues,
            mult_busy_cycles=mult_busy,
            addsub_busy_cycles=addsub_busy,
            forward_mult_uses=fwd_uses[0],
            forward_addsub_uses=fwd_uses[1],
            rf_reads=rf.total_reads,
            rf_writes=rf.total_writes,
            max_reads_per_cycle=rf.max_reads_seen,
            max_writes_per_cycle=rf.max_writes_seen,
        )
        return SimulationResult(
            outputs=outputs,
            cycles=len(program.words),
            mult_stats=mult.stats,
            addsub_stats=addsub.stats,
            max_reads_per_cycle=rf.max_reads_seen,
            max_writes_per_cycle=rf.max_writes_seen,
            register_count=program.register_count,
            profile=profile,
        )
