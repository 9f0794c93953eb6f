"""Execution-trace recorder: the paper's Step 1-2 of the design flow.

The SM algorithm "is written by using a Python script, whose execution
trace is recorded to extract the execution order of atomic operations
on F_{p^2}" (paper Section I / III-C).  :class:`Tracer` implements the
:class:`repro.curve.edwards.Fp2Ops` interface; running any of the
curve-level routines (point doubling, table construction, the full
Algorithm 1) with a Tracer as the ops object records the exact
micro-operation sequence while simultaneously computing concrete values
(so the trace is self-checking).

Traced values are opaque handles (:class:`TracedValue`); arithmetic on
them appends :class:`MicroOp` records with SSA-style dependencies.

:class:`ValueRecorder` is what a cached shape's compiled program
(:class:`repro.rtl.compiled.CompiledProgram`) reads of a request: each
value (in uid order) and each SELECT's chosen source, without the
micro-ops.  A cache hit gets it from the shape's
:class:`~repro.trace.replay.Replay` instead of re-running the curve code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Tuple

from ..field.fp2 import (
    Fp2Raw,
    fp2_add,
    fp2_conj,
    fp2_mul,
    fp2_neg,
    fp2_sqr,
    fp2_sub,
)
from .ops import MicroOp, OpKind, Unit


class TracedValue(NamedTuple):
    """An SSA value handle: trace uid plus the concrete value.

    A NamedTuple (not a frozen dataclass) — one is constructed per
    emitted micro-op, so construction cost matters on the serving path.
    """

    uid: int
    value: Fp2Raw

    def __repr__(self) -> str:
        return f"v{self.uid}"


class Tracer:
    """Records micro-ops; implements the Fp2Ops interface.

    Section markers (:meth:`begin_section`) tag ranges of the trace for
    profiling (endomorphisms / table / main loop / normalization).
    Constants are deduplicated by value — the hardware stores each ROM
    constant once.
    """

    def __init__(self) -> None:
        self.trace: List[MicroOp] = []
        self._const_cache: Dict[Fp2Raw, TracedValue] = {}
        self.inputs: List[int] = []
        self.outputs: List[int] = []
        self.live: List[int] = []
        self.sections: List[Tuple[str, int, int]] = []
        self._open_sections: List[Tuple[str, int]] = []

    # -- recording helpers -------------------------------------------
    def _emit(
        self, kind: OpKind, srcs: Tuple[TracedValue, ...], value: Fp2Raw, name: str = ""
    ) -> TracedValue:
        uid = len(self.trace)
        self.trace.append(
            MicroOp(
                uid=uid,
                kind=kind,
                srcs=tuple(s.uid for s in srcs),
                value=value,
                name=name,
            )
        )
        return TracedValue(uid=uid, value=value)

    # -- Fp2Ops interface ---------------------------------------------
    def mul(self, a: TracedValue, b: TracedValue) -> TracedValue:
        return self._emit(OpKind.MUL, (a, b), fp2_mul(a.value, b.value))

    def sqr(self, a: TracedValue) -> TracedValue:
        return self._emit(OpKind.SQR, (a,), fp2_sqr(a.value))

    def add(self, a: TracedValue, b: TracedValue) -> TracedValue:
        return self._emit(OpKind.ADD, (a, b), fp2_add(a.value, b.value))

    def sub(self, a: TracedValue, b: TracedValue) -> TracedValue:
        return self._emit(OpKind.SUB, (a, b), fp2_sub(a.value, b.value))

    def neg(self, a: TracedValue) -> TracedValue:
        return self._emit(OpKind.NEG, (a,), fp2_neg(a.value))

    def conj(self, a: TracedValue) -> TracedValue:
        return self._emit(OpKind.CONJ, (a,), fp2_conj(a.value))

    def select(self, chosen: TracedValue, *alternatives: TracedValue) -> TracedValue:
        """A constant-time mux: value of ``chosen``, dependency on all.

        ``chosen`` must be one of ``alternatives``; the emitted SELECT op
        lists the chosen source first.
        """
        if not any(chosen.uid == a.uid for a in alternatives):
            raise ValueError("chosen value is not among the alternatives")
        others = tuple(a for a in alternatives if a.uid != chosen.uid)
        return self._emit(OpKind.SELECT, (chosen,) + others, chosen.value)

    def const(self, value: Fp2Raw, name: str = "const") -> TracedValue:
        cached = self._const_cache.get(value)
        if cached is not None:
            return cached
        tv = self._emit(OpKind.CONST, (), value, name)
        self._const_cache[value] = tv
        return tv

    # -- program boundary ----------------------------------------------
    def input(self, value: Fp2Raw, name: str) -> TracedValue:
        """Declare a register-file-preloaded input value."""
        tv = self._emit(OpKind.INPUT, (), value, name)
        self.inputs.append(tv.uid)
        return tv

    def mark_output(self, value: TracedValue, name: str = "") -> None:
        """Declare a trace value as a program output (kept live)."""
        self.outputs.append(value.uid)
        if name:
            op = self.trace[value.uid]
            if not op.name:
                self.trace[value.uid] = MicroOp(
                    uid=op.uid, kind=op.kind, srcs=op.srcs, value=op.value, name=name
                )

    def mark_live(self, value: TracedValue) -> None:
        """Pin a value as live without declaring it a program output.

        The optimizer's dead-value elimination treats ``outputs`` and
        ``live`` as its liveness roots; everything unreachable from them
        is deleted.  Balanced-op-pattern workloads (constant-time code
        that issues an op and discards the result so both branches cost
        the same) must pin those intentionally dead results here, or the
        optimizer would change the trace shape between branches.
        ``mark_live`` also shields the value from being merged away by
        common-subexpression elimination.
        """
        self.live.append(value.uid)

    # -- sections --------------------------------------------------------
    def begin_section(self, name: str) -> None:
        self._open_sections.append((name, len(self.trace)))

    def end_section(self) -> None:
        name, start = self._open_sections.pop()
        self.sections.append((name, start, len(self.trace)))

    # -- stats -----------------------------------------------------------
    def op_counts(self) -> Dict[OpKind, int]:
        counts: Dict[OpKind, int] = {}
        for op in self.trace:
            counts[op.kind] = counts.get(op.kind, 0) + 1
        return counts

    def arithmetic_size(self) -> int:
        """Number of ops that occupy a functional unit."""
        return sum(1 for op in self.trace if op.is_arithmetic)

    def multiplier_ops(self) -> int:
        return sum(1 for op in self.trace if op.unit is Unit.MULTIPLIER)

    def addsub_ops(self) -> int:
        return sum(1 for op in self.trace if op.unit is Unit.ADDSUB)

    def multiplication_share(self) -> float:
        """Fraction of arithmetic ops that are multiplications.

        This is the statistic behind the paper's design decision: "our
        in-house profiling of FourQ's SM revealed that F_{p^2}
        multiplications account for 57% of the total arithmetic
        operations" (Section III-B).
        """
        total = self.arithmetic_size()
        if total == 0:
            return 0.0
        return self.multiplier_ops() / total


@dataclass
class ValueRecorder:
    """One request's recording: what a cached shape's compiled tape reads.

    * ``values`` — every op's field-layer value, indexed by uid;
    * ``chosen`` — SELECT uid -> the uid of the source it passed on;
    * ``outputs`` — the output uids, as a :class:`Tracer` keeps them.

    A cache hit gets one from the shape's
    :class:`~repro.trace.replay.Replay`; :meth:`of` derives one from a
    full trace.
    """

    values: List[Fp2Raw] = field(default_factory=list)
    chosen: Dict[int, int] = field(default_factory=dict)
    outputs: List[int] = field(default_factory=list)

    @classmethod
    def of(cls, tracer: "Tracer | ValueRecorder") -> "ValueRecorder":
        """The recording a full :class:`Tracer` run implies."""
        if isinstance(tracer, ValueRecorder):
            return tracer
        return cls(
            values=[op.value for op in tracer.trace],
            chosen={
                op.uid: op.srcs[0] for op in tracer.trace if op.kind is OpKind.SELECT
            },
            outputs=list(tracer.outputs),
        )

    def __len__(self) -> int:
        return len(self.values)
