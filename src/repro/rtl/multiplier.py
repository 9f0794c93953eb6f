"""Bit-exact model of the pipelined Karatsuba F_{p^2} multiplier.

Implements the paper's Algorithm 2 at the level an RTL designer would:
explicit integer datapaths with declared bit widths, Mersenne folds
expressed as slice-and-add, and conditional final subtractions — no
``% p`` anywhere.  One note versus the paper's listing: Algorithm 2
corrects a possibly-negative ``t4 = t0 - t1`` by adding "p"; with
``t0, t1`` being full 254-bit products the correction must be a
multiple of p of comparable magnitude, so this model adds
``p^2 = p * (2^127 + 1)`` (``p^2 === 0 mod p``), which makes every
subsequent slice width check out.

:data:`WIDTHS` is the one width table of the datapath: the operands,
t0–t8, the output of each fold stage (two per half) and the input of
the conditional subtraction.  For canonical operands (< p) every value
stays inside its declared width; ``tests/test_widths.py`` proves this
by interval arithmetic and shows that narrowing any entry by one bit,
or dropping a fold stage, breaks the proof (the argument is in
``docs/derivation.md``).  Two bodies run the datapath:

* :func:`karatsuba_fp2_multiply` asserts every width from the table as
  it goes.  The interpreted simulator's :class:`PipelinedMultiplier`
  runs it, so every cache fill re-checks the widths on real values.
* :func:`karatsuba_fp2_multiply_lean` is the same slice-and-add
  datapath without the assertions; the compiled tape
  (:mod:`repro.rtl.compiled`) runs it after vetting that every value it
  preloads is canonical.  Both bodies are bit-identical on canonical
  operands and agree with the field layer's F_{p^2} product.

The pipeline wrapper models the initiation-interval-1 behaviour: a new
operand pair can be accepted every cycle, and the product appears
``depth`` cycles later (default 3: partial products / accumulate /
fold+correct).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..field.fp import P127
from ..field.fp2 import Fp2Raw

_MASK127 = (1 << 127) - 1
_P_SQUARED = P127 * P127


@dataclass(frozen=True)
class Algorithm2Widths:
    """The declared bit width of every value on Algorithm 2's datapath.

    A value of width ``w`` lies in ``[0, 2^w)``; ``t4 = t0 - t1`` is
    signed, ``|t4| < 2^t4``.  ``folds`` holds each fold stage's output
    width in order, so its length is the fold depth of each half;
    ``cond_sub`` is the input width of the final conditional
    subtraction, which lands each half in ``[0, p)``.
    """

    operand: int
    t0: int  # x0 * y0
    t1: int  # x1 * y1
    t2: int  # x0 + x1
    t3: int  # y0 + y1
    t4: int  # t0 - t1, signed
    t5: int  # t0 + t1
    t6: int  # t2 * t3
    t7: int  # t4, made non-negative by adding p^2
    t8: int  # t6 - t5 = x0 * y1 + x1 * y0
    folds: Tuple[int, ...]
    cond_sub: int

    @property
    def folds_per_product(self) -> int:
        """Fold stages one product passes: the depth, once per half."""
        return 2 * len(self.folds)

    #: One final conditional subtraction per half.
    cond_subs_per_product = 2


#: The tight widths for canonical operands (see the module docstring).
WIDTHS = Algorithm2Widths(
    operand=127,
    t0=254,
    t1=254,
    t2=128,
    t3=128,
    t4=254,
    t5=255,
    t6=256,
    t7=254,
    t8=255,
    folds=(129, 128),
    cond_sub=128,
)

(_OPERAND, _T0, _T1, _T2, _T3, _T4, _T5, _T6, _T7, _T8, _COND_SUB) = (
    1 << w
    for w in (
        WIDTHS.operand, WIDTHS.t0, WIDTHS.t1, WIDTHS.t2, WIDTHS.t3, WIDTHS.t4,
        WIDTHS.t5, WIDTHS.t6, WIDTHS.t7, WIDTHS.t8, WIDTHS.cond_sub,
    )
)
_FOLDS = tuple(1 << w for w in WIDTHS.folds)


@dataclass
class MultiplierStats:
    """Operation statistics the area/energy model consumes.

    Folds and conditional subtractions are fixed per product
    (:attr:`Algorithm2Widths.folds_per_product`,
    :attr:`Algorithm2Widths.cond_subs_per_product`), so only issues are
    counted.
    """

    issues: int = 0


def karatsuba_fp2_multiply(x: Fp2Raw, y: Fp2Raw, stats: Optional[MultiplierStats] = None) -> Fp2Raw:
    """One combinational pass of Algorithm 2 (bit-exact, width-checked).

    Raises AssertionError if any intermediate exceeds its width in
    :data:`WIDTHS` — the widths are part of the model.
    """
    x0, x1 = x
    y0, y1 = y
    assert 0 <= x0 < _OPERAND and 0 <= x1 < _OPERAND
    assert 0 <= y0 < _OPERAND and 0 <= y1 < _OPERAND

    # Stage 1: three 127/128-bit multiplications (Karatsuba) + 2 adds.
    t0 = x0 * y0
    t1 = x1 * y1
    t2 = x0 + x1
    t3 = y0 + y1
    assert t0 < _T0 and t1 < _T1
    assert t2 < _T2 and t3 < _T3

    # Stage 2: cross product and lazily-reduced combinations.
    t6 = t2 * t3
    t4 = t0 - t1                       # signed
    t5 = t0 + t1
    assert -_T4 < t4 < _T4 and t5 < _T5 and t6 < _T6

    # Stage 3: corrections and Mersenne folds.
    # t7: make the real part non-negative by adding p^2 (=== 0 mod p).
    t7 = t4 + _P_SQUARED if t4 < 0 else t4
    t8 = t6 - t5                       # = x0 y1 + x1 y0 >= 0
    assert 0 <= t7 < _T7 and 0 <= t8 < _T8

    z0 = _cond_sub(_fold(t7))
    z1 = _cond_sub(_fold(t8))
    if stats is not None:
        stats.issues += 1
    return (z0, z1)


def _fold(v: int) -> int:
    """The Mersenne fold stages: v[126:0] + v[.. :127], once per stage."""
    for limit in _FOLDS:
        v = (v & _MASK127) + (v >> 127)
        assert v < limit, "fold stage output wider than declared"
    return v


def _cond_sub(v: int) -> int:
    """Final conditional subtraction into [0, p)."""
    assert v < _COND_SUB, "cond-sub input wider than declared"
    if v >= P127:
        v -= P127
    assert v < P127, "cond-sub input out of single-subtraction range"
    return v


def karatsuba_fp2_multiply_lean(x: Fp2Raw, y: Fp2Raw) -> Fp2Raw:
    """Algorithm 2 without width assertions or statistics.

    The datapath of :func:`karatsuba_fp2_multiply` — Karatsuba partial
    products, the p^2 correction, two slice-and-add fold stages per
    half and one conditional subtraction — for operands the caller has
    vetted canonical, where :data:`WIDTHS` is proven to hold.  Every
    result is canonical again.
    """
    x0, x1 = x
    y0, y1 = y
    t0 = x0 * y0
    t1 = x1 * y1
    t7 = t0 - t1
    if t7 < 0:
        t7 += _P_SQUARED
    t8 = (x0 + x1) * (y0 + y1) - t0 - t1
    t7 = (t7 & _MASK127) + (t7 >> 127)
    t7 = (t7 & _MASK127) + (t7 >> 127)
    t8 = (t8 & _MASK127) + (t8 >> 127)
    t8 = (t8 & _MASK127) + (t8 >> 127)
    return (t7 - P127 if t7 >= P127 else t7, t8 - P127 if t8 >= P127 else t8)


@dataclass
class PipelinedMultiplier:
    """The II=1 pipelined wrapper: issue every cycle, result after depth.

    ``tick`` advances one clock: shifts the pipeline and returns the
    value leaving the final stage (or None).
    """

    depth: int = 3
    stats: MultiplierStats = field(default_factory=MultiplierStats)
    _pipe: List[Optional[Fp2Raw]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._pipe = [None] * self.depth

    def reset(self) -> None:
        """Flush the pipeline and zero the statistics counters."""
        self._pipe = [None] * self.depth
        self.stats = MultiplierStats()

    def tick(self, issue: Optional[Tuple[Fp2Raw, Fp2Raw]]) -> Optional[Fp2Raw]:
        """Advance one cycle; optionally issue (x, y); return completion."""
        result = self._pipe[-1]
        for i in range(self.depth - 1, 0, -1):
            self._pipe[i] = self._pipe[i - 1]
        if issue is not None:
            x, y = issue
            # The arithmetic happens conceptually across the stages; the
            # model computes it at issue and carries the result down the
            # pipe (values are identical; timing is what matters).
            self._pipe[0] = karatsuba_fp2_multiply(x, y, self.stats)
        else:
            self._pipe[0] = None
        return result

    @property
    def busy(self) -> bool:
        return any(v is not None for v in self._pipe)
