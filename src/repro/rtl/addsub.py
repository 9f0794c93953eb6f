"""Bit-exact model of the F_{p^2} adder/subtractor unit.

Two 127-bit modular adder/subtractor lanes (one per F_{p^2} component)
with conditional correction — again no ``% p``.  Supports the four
opcodes of the control word: ADD, SUB, NEG (0 - a) and CONJ (negate
imaginary half only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..field.fp import P127
from ..field.fp2 import Fp2Raw
from ..trace.ops import OpKind


@dataclass
class AddSubStats:
    issues: int = 0


# Each unit function is one Python call per issue: the lanes are
# written out, not delegated, since the compiled tape calls these
# directly.  Canonical operands give canonical results: a sum lies in
# [0, 2p) and a difference in (-p, p), so one correction lands each
# lane in [0, p).


def _unit_add(a: Fp2Raw, b: Fp2Raw) -> Fp2Raw:
    s0 = a[0] + b[0]
    s1 = a[1] + b[1]
    return (s0 - P127 if s0 >= P127 else s0, s1 - P127 if s1 >= P127 else s1)


def _unit_sub(a: Fp2Raw, b: Fp2Raw) -> Fp2Raw:
    s0 = a[0] - b[0]
    s1 = a[1] - b[1]
    return (s0 + P127 if s0 < 0 else s0, s1 + P127 if s1 < 0 else s1)


def _unit_neg(a: Fp2Raw, b: Optional[Fp2Raw] = None) -> Fp2Raw:
    s0 = -a[0]
    s1 = -a[1]
    return (s0 + P127 if s0 < 0 else s0, s1 + P127 if s1 < 0 else s1)


def _unit_conj(a: Fp2Raw, b: Optional[Fp2Raw] = None) -> Fp2Raw:
    s1 = -a[1]
    return (a[0], s1 + P127 if s1 < 0 else s1)


#: One combinational pass of the adder/subtractor per opcode, as
#: ``f(a, b)``; the unary opcodes ignore ``b``.
ADDSUB_OPS = {
    OpKind.ADD: _unit_add,
    OpKind.SUB: _unit_sub,
    OpKind.NEG: _unit_neg,
    OpKind.CONJ: _unit_conj,
}


def fp2_addsub_compute(kind: OpKind, a: Fp2Raw, b: Optional[Fp2Raw]) -> Fp2Raw:
    """One combinational pass of the adder/subtractor."""
    unit = ADDSUB_OPS.get(kind)
    if unit is None:
        raise ValueError(f"addsub unit cannot execute {kind}")
    if kind in (OpKind.ADD, OpKind.SUB):
        assert b is not None
    return unit(a, b)


@dataclass
class AddSubUnit:
    """Pipelined wrapper (default latency 1)."""

    depth: int = 1
    stats: AddSubStats = field(default_factory=AddSubStats)
    _pipe: List[Optional[Fp2Raw]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._pipe = [None] * self.depth

    def reset(self) -> None:
        """Flush the pipeline and zero the statistics counters."""
        self._pipe = [None] * self.depth
        self.stats = AddSubStats()

    def tick(
        self, issue: Optional[Tuple[OpKind, Fp2Raw, Optional[Fp2Raw]]]
    ) -> Optional[Fp2Raw]:
        result = self._pipe[-1]
        for i in range(self.depth - 1, 0, -1):
            self._pipe[i] = self._pipe[i - 1]
        if issue is not None:
            kind, a, b = issue
            self._pipe[0] = fp2_addsub_compute(kind, a, b)
            self.stats.issues += 1
        else:
            self._pipe[0] = None
        return result

    @property
    def busy(self) -> bool:
        return any(v is not None for v in self._pipe)
