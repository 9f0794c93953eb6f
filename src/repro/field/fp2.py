"""Arithmetic in the quadratic extension field F_{p^2} = F_p(i), i^2 = -1.

FourQ points live over F_{p^2} with p = 2^127 - 1.  An element is
``a0 + a1*i`` with ``a0, a1`` in F_p — exactly the representation the
paper's datapath stores in its 254-bit register file.

Two multiplication routines are provided:

* :func:`fp2_mul_schoolbook` — four F_p multiplications, the structure
  used by earlier pairing processors (paper reference [15]);
* :func:`fp2_mul` — Karatsuba with lazy reduction, three F_p
  multiplications, the structure of the paper's pipelined multiplier
  (Algorithm 2).  The bit-exact *hardware* version of Algorithm 2 —
  with explicit 254-bit fold slices — lives in :mod:`repro.rtl.multiplier`;
  this module is the mathematical layer the hardware is verified against.

Raw elements are ``(int, int)`` tuples in hot paths; the :class:`Fp2`
class wraps them for high-level code.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from .fp import (
    P127,
    fp_add,
    fp_inv,
    fp_is_square,
    fp_mul,
    fp_neg,
    fp_sqr,
    fp_sqrt,
    fp_sub,
)

#: Raw representation of an F_{p^2} element: (real, imaginary).
Fp2Raw = Tuple[int, int]

ZERO: Fp2Raw = (0, 0)
ONE: Fp2Raw = (1, 0)
I_UNIT: Fp2Raw = (0, 1)


def fp2_add(a: Fp2Raw, b: Fp2Raw) -> Fp2Raw:
    """Component-wise addition."""
    return (fp_add(a[0], b[0]), fp_add(a[1], b[1]))


def fp2_sub(a: Fp2Raw, b: Fp2Raw) -> Fp2Raw:
    """Component-wise subtraction."""
    return (fp_sub(a[0], b[0]), fp_sub(a[1], b[1]))


def fp2_neg(a: Fp2Raw) -> Fp2Raw:
    """Negation."""
    return (fp_neg(a[0]), fp_neg(a[1]))


def fp2_conj(a: Fp2Raw) -> Fp2Raw:
    """Complex conjugation ``a0 + a1*i -> a0 - a1*i``.

    This is exactly the p-power Frobenius on F_{p^2}: for
    ``p === 3 (mod 4)`` we have ``i^p = -i``, so ``x^p = conj(x)``.
    It is free in hardware (sign flip) and is the cheap half of FourQ's
    ψ endomorphism.
    """
    return (a[0], fp_neg(a[1]))


def fp2_mul_schoolbook(a: Fp2Raw, b: Fp2Raw) -> Fp2Raw:
    """Multiply using four F_p multiplications (the pre-Karatsuba datapath).

    ``(a0 + a1 i)(b0 + b1 i) = (a0 b0 - a1 b1) + (a0 b1 + a1 b0) i``.
    """
    a0, a1 = a
    b0, b1 = b
    t0 = fp_mul(a0, b0)
    t1 = fp_mul(a1, b1)
    t2 = fp_mul(a0, b1)
    t3 = fp_mul(a1, b0)
    return (fp_sub(t0, t1), fp_add(t2, t3))


def fp2_mul(a: Fp2Raw, b: Fp2Raw) -> Fp2Raw:
    """Multiply using Karatsuba with lazy reduction (3 F_p muls).

    Mirrors the dataflow of the paper's Algorithm 2:

    * ``t0 = x0*y0``, ``t1 = x1*y1`` (double-width, reduction delayed),
    * ``t6 = (x0+x1)*(y0+y1)``,
    * real part  ``t0 - t1``  reduced once,
    * imag part  ``t6 - t0 - t1`` reduced once.

    Each reduction is one ``% p`` on the wide value, inline: in CPython
    that beats a call to the Mersenne fold of :func:`fp_reduce` (the
    bit-exact fold slices are :mod:`repro.rtl.multiplier`'s job).
    """
    x0, x1 = a
    y0, y1 = b
    t0 = x0 * y0              # <= (p-1)^2, reduction deferred
    t1 = x1 * y1
    return ((t0 - t1) % P127, ((x0 + x1) * (y0 + y1) - t0 - t1) % P127)


def fp2_sqr(a: Fp2Raw) -> Fp2Raw:
    """Square an element: ``(a0+a1 i)^2 = (a0-a1)(a0+a1) + 2 a0 a1 i``.

    Costs two F_p multiplications; in the paper's unified datapath a
    squaring is issued to the same pipelined multiplier as a full
    multiplication (one slot), so op-counting treats S = M.
    """
    a0, a1 = a
    return ((a0 - a1) * (a0 + a1) % P127, 2 * a0 * a1 % P127)


def fp2_norm(a: Fp2Raw) -> int:
    """Field norm  N(a) = a * conj(a) = a0^2 + a1^2  (an element of F_p)."""
    return fp_add(fp_sqr(a[0]), fp_sqr(a[1]))


def fp2_inv(a: Fp2Raw) -> Fp2Raw:
    """Multiplicative inverse: ``a^-1 = conj(a) / N(a)``."""
    n = fp2_norm(a)
    if n == 0:
        raise ZeroDivisionError("inverse of zero in F_{p^2}")
    ninv = fp_inv(n)
    return (fp_mul(a[0], ninv), fp_mul(fp_neg(a[1]), ninv))


def fp2_mul_int(a: Fp2Raw, k: int) -> Fp2Raw:
    """Multiply by a small integer constant."""
    k %= P127
    return (fp_mul(a[0], k), fp_mul(a[1], k))


def fp2_pow(a: Fp2Raw, e: int) -> Fp2Raw:
    """Exponentiation by a non-negative integer via square-and-multiply."""
    if e < 0:
        return fp2_pow(fp2_inv(a), -e)
    result = ONE
    base = a
    while e:
        if e & 1:
            result = fp2_mul(result, base)
        base = fp2_sqr(base)
        e >>= 1
    return result


def fp2_sqrt(a: Fp2Raw) -> Optional[Fp2Raw]:
    """Return a square root of ``a`` in F_{p^2}, or None if none exists.

    Uses the standard complex-style formula: for ``a = a0 + a1 i``,
    with ``n = sqrt(a0^2 + a1^2)`` in F_p (the norm is a square iff
    ``a`` is a square in F_{p^2} up to a factor of -1 handling), solve

        x0^2 = (a0 + n) / 2,   x1 = a1 / (2 x0).

    Both branches ``+-n`` are tried; the pure-imaginary / pure-real edge
    cases are handled separately.
    """
    a0, a1 = a
    if a1 == 0:
        # a is in F_p: either sqrt in F_p, or sqrt(-|a|) = i*sqrt(|a|).
        r = fp_sqrt(a0)
        if r is not None:
            return (r, 0)
        r = fp_sqrt(fp_neg(a0))
        if r is not None:
            return (0, r)
        return None
    n = fp_sqrt(fp2_norm(a))
    if n is None:
        return None
    inv2 = fp_inv(2)
    for sign_n in (n, fp_neg(n)):
        half = fp_mul(fp_add(a0, sign_n), inv2)
        x0 = fp_sqrt(half)
        if x0 is None or x0 == 0:
            continue
        x1 = fp_mul(a1, fp_inv(fp_add(x0, x0)))
        cand = (x0, x1)
        if fp2_sqr(cand) == a:
            return cand
    return None


def fp2_is_square(a: Fp2Raw) -> bool:
    """True iff ``a`` is a square in F_{p^2}.

    ``a`` is a square in F_{p^2} iff its norm ``a^(p+1) = N(a)`` is a
    square in F_p.
    """
    if a == ZERO:
        return True
    return fp_is_square(fp2_norm(a))


class Fp2:
    """An element of F_{p^2} with operator overloading.

    Wraps a raw ``(int, int)`` pair.  Supports mixed arithmetic with
    ints (treated as F_p constants embedded into F_{p^2}).
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Union[int, Fp2Raw, "Fp2"] = 0, im: int = 0):
        if isinstance(re, Fp2):
            self.re, self.im = re.re, re.im
        elif isinstance(re, tuple):
            self.re, self.im = re[0] % P127, re[1] % P127
        else:
            self.re, self.im = re % P127, im % P127

    # -- conversions -------------------------------------------------
    @property
    def raw(self) -> Fp2Raw:
        """The underlying ``(real, imag)`` int tuple."""
        return (self.re, self.im)

    def __repr__(self) -> str:
        return f"Fp2({hex(self.re)}, {hex(self.im)})"

    # -- comparisons -------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp2):
            return self.raw == other.raw
        if isinstance(other, tuple):
            return self.raw == (other[0] % P127, other[1] % P127)
        if isinstance(other, int):
            return self.raw == (other % P127, 0)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Fp2", self.re, self.im))

    def __bool__(self) -> bool:
        return self.raw != ZERO

    # -- arithmetic --------------------------------------------------
    @staticmethod
    def _coerce(other: Union[int, Fp2Raw, "Fp2"]) -> Optional[Fp2Raw]:
        if isinstance(other, Fp2):
            return other.raw
        if isinstance(other, tuple):
            return (other[0] % P127, other[1] % P127)
        if isinstance(other, int):
            return (other % P127, 0)
        return None

    def __add__(self, other: Union[int, Fp2Raw, "Fp2"]) -> "Fp2":
        v = self._coerce(other)
        if v is None:
            return NotImplemented  # type: ignore[return-value]
        return Fp2(fp2_add(self.raw, v))

    __radd__ = __add__

    def __sub__(self, other: Union[int, Fp2Raw, "Fp2"]) -> "Fp2":
        v = self._coerce(other)
        if v is None:
            return NotImplemented  # type: ignore[return-value]
        return Fp2(fp2_sub(self.raw, v))

    def __rsub__(self, other: Union[int, Fp2Raw, "Fp2"]) -> "Fp2":
        v = self._coerce(other)
        if v is None:
            return NotImplemented  # type: ignore[return-value]
        return Fp2(fp2_sub(v, self.raw))

    def __mul__(self, other: Union[int, Fp2Raw, "Fp2"]) -> "Fp2":
        v = self._coerce(other)
        if v is None:
            return NotImplemented  # type: ignore[return-value]
        return Fp2(fp2_mul(self.raw, v))

    __rmul__ = __mul__

    def __neg__(self) -> "Fp2":
        return Fp2(fp2_neg(self.raw))

    def __pow__(self, e: int) -> "Fp2":
        return Fp2(fp2_pow(self.raw, e))

    def __truediv__(self, other: Union[int, Fp2Raw, "Fp2"]) -> "Fp2":
        v = self._coerce(other)
        if v is None:
            return NotImplemented  # type: ignore[return-value]
        return Fp2(fp2_mul(self.raw, fp2_inv(v)))

    def __rtruediv__(self, other: Union[int, Fp2Raw, "Fp2"]) -> "Fp2":
        v = self._coerce(other)
        if v is None:
            return NotImplemented  # type: ignore[return-value]
        return Fp2(fp2_mul(v, fp2_inv(self.raw)))

    # -- field-specific helpers -------------------------------------
    def conjugate(self) -> "Fp2":
        """Conjugation / p-power Frobenius."""
        return Fp2(fp2_conj(self.raw))

    def inverse(self) -> "Fp2":
        """Multiplicative inverse."""
        return Fp2(fp2_inv(self.raw))

    def norm(self) -> int:
        """Field norm down to F_p."""
        return fp2_norm(self.raw)

    def sqrt(self) -> Optional["Fp2"]:
        """A square root in F_{p^2}, or None for a non-square."""
        r = fp2_sqrt(self.raw)
        return None if r is None else Fp2(r)

    def is_square(self) -> bool:
        """True iff this element is a square in F_{p^2}."""
        return fp2_is_square(self.raw)

    def square(self) -> "Fp2":
        """The element squared (uses the 2-mul squaring formula)."""
        return Fp2(fp2_sqr(self.raw))
