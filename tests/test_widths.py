"""Algorithm 2's width table, proven once for canonical operands.

``width_violations`` runs the multiplier's datapath on intervals: every
operand half is some integer in ``[0, p)`` and each step maps the
intervals of its inputs to a sound interval of its output.  An empty
result proves that every canonical operand pair keeps every
intermediate inside its declared width in
:data:`repro.rtl.multiplier.WIDTHS`, that the fold stages bring both
halves into the conditional subtraction's range, and that one
subtraction lands each half in ``[0, p)``.  The argument is written
out in ``docs/derivation.md``.

The table is tight: narrowing any entry by one bit, or dropping a fold
stage, breaks the proof.  The lean multiplier the compiled tape runs is
bit-identical to the asserting model on canonical operands.
"""

from __future__ import annotations

import dataclasses
from typing import List

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.field.fp import P127 as P
from repro.field.fp2 import fp2_mul
from repro.rtl.multiplier import (
    WIDTHS,
    Algorithm2Widths,
    karatsuba_fp2_multiply,
    karatsuba_fp2_multiply_lean,
)

_MASK127 = (1 << 127) - 1


@dataclasses.dataclass(frozen=True)
class Interval:
    """The integers ``lo .. hi``, both ends included."""

    lo: int
    hi: int

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        assert self.lo >= 0 and other.lo >= 0  # no signed factor on the datapath
        return Interval(self.lo * other.lo, self.hi * other.hi)

    def fits(self, width: int) -> bool:
        return 0 <= self.lo and self.hi < 1 << width

    def fits_signed(self, width: int) -> bool:
        return -(1 << width) < self.lo and self.hi < 1 << width


def _correct(t4: Interval) -> Interval:
    """``t4 + p^2 if t4 < 0 else t4``: the union of both branches."""
    parts = []
    if t4.hi >= 0:
        parts.append(Interval(max(t4.lo, 0), t4.hi))
    if t4.lo < 0:
        parts.append(Interval(t4.lo + P * P, min(t4.hi, -1) + P * P))
    return Interval(min(v.lo for v in parts), max(v.hi for v in parts))


def _fold(v: Interval) -> Interval:
    """One fold stage ``v[126:0] + v[..:127]`` of a non-negative interval.

    With ``hi = q * 2^127 + r`` the largest fold is either at ``hi``
    itself (``q + r``) or at the top of the block below
    (``(q - 1) + (2^127 - 1)``); every other value is below one of the
    two.  The lower end 0 is sound.
    """
    assert v.lo >= 0
    q, r = v.hi >> 127, v.hi & _MASK127
    return Interval(0, v.hi if q == 0 else max(q + r, q - 1 + _MASK127))


def _cond_sub(v: Interval) -> Interval:
    """``v - p if v >= p else v``."""
    return Interval(0, max(min(v.hi, P - 1), v.hi - P))


def width_violations(widths: Algorithm2Widths) -> List[str]:
    """The values whose proven range breaks ``widths``; [] is a proof."""
    x0 = x1 = y0 = y1 = Interval(0, P - 1)  # canonical operand halves
    t0 = x0 * y0
    t1 = x1 * y1
    t2 = x0 + x1
    t3 = y0 + y1
    t4 = t0 - t1
    t5 = t0 + t1
    t6 = t2 * t3
    t7 = _correct(t4)
    # t8 = t6 - t5 evaluated on intervals would lose the correlation
    # between t6 and t5 (and admit negatives); the Karatsuba identity
    # (x0 + x1)(y0 + y1) - x0 y0 - x1 y1 = x0 y1 + x1 y0 is exact.
    t8 = x0 * y1 + x1 * y0

    checks = [
        ("operand", x0.fits(widths.operand)),
        ("t0", t0.fits(widths.t0)),
        ("t1", t1.fits(widths.t1)),
        ("t2", t2.fits(widths.t2)),
        ("t3", t3.fits(widths.t3)),
        ("t4", t4.fits_signed(widths.t4)),
        ("t5", t5.fits(widths.t5)),
        ("t6", t6.fits(widths.t6)),
        ("t7", t7.fits(widths.t7)),
        ("t8", t8.fits(widths.t8)),
    ]
    for half, v in (("t7", t7), ("t8", t8)):
        for stage, width in enumerate(widths.folds, 1):
            v = _fold(v)
            checks.append((f"{half} fold {stage}", v.fits(width)))
        checks.append((f"{half} cond_sub input", v.fits(widths.cond_sub)))
        checks.append((f"{half} cond_sub output", _cond_sub(v).hi < P))
    return [name for name, ok in checks if not ok]


def _narrowed():
    """Every one-bit narrowing of the table, and the table one fold
    stage shallower."""
    cases = {}
    for f in dataclasses.fields(Algorithm2Widths):
        value = getattr(WIDTHS, f.name)
        if f.name == "folds":
            for i in range(len(value)):
                folds = value[:i] + (value[i] - 1,) + value[i + 1:]
                cases[f"folds[{i}]"] = dataclasses.replace(WIDTHS, folds=folds)
        else:
            cases[f.name] = dataclasses.replace(WIDTHS, **{f.name: value - 1})
    cases["fold depth"] = dataclasses.replace(WIDTHS, folds=WIDTHS.folds[:-1])
    return cases


NARROWED = _narrowed()

coord = st.integers(min_value=0, max_value=P - 1)
elements = st.tuples(coord, coord)

#: A canonical pair whose imaginary half leaves the second fold stage as
#: exactly 2^127 = p + 1: the conditional subtraction's input needs all
#: 128 bits, and the subtraction still lands in [0, p).
CONDSUB_WITNESS = ((P - 1, 17), (90074744184954299152069749026056291267, P - 5))

EDGES = [(0, 0), (1, 0), (0, 1), (P - 1, P - 1), (P - 1, 0), (0, P - 1), *CONDSUB_WITNESS]


class TestWidthProof:
    def test_declared_widths_hold(self):
        assert width_violations(WIDTHS) == []

    @pytest.mark.parametrize("entry", sorted(NARROWED))
    def test_narrowing_breaks_the_proof(self, entry):
        assert width_violations(NARROWED[entry]) != []

    def test_per_product_work(self):
        assert WIDTHS.folds_per_product == 2 * len(WIDTHS.folds) == 4
        assert WIDTHS.cond_subs_per_product == 2

    def test_cond_sub_input_reaches_2_to_127(self):
        (x0, x1), (y0, y1) = CONDSUB_WITNESS
        v = x0 * y1 + x1 * y0
        for _ in WIDTHS.folds:
            v = (v & _MASK127) + (v >> 127)
        assert v == 1 << 127 == P + 1
        assert karatsuba_fp2_multiply(*CONDSUB_WITNESS) == fp2_mul(*CONDSUB_WITNESS)


class TestLeanMultiplier:
    @given(elements, elements)
    def test_bit_identical_to_asserting_model(self, x, y):
        assert karatsuba_fp2_multiply_lean(x, y) == karatsuba_fp2_multiply(x, y)

    def test_edge_values(self):
        for x in EDGES:
            for y in EDGES:
                expected = fp2_mul(x, y)
                assert karatsuba_fp2_multiply_lean(x, y) == expected
                assert karatsuba_fp2_multiply(x, y) == expected
