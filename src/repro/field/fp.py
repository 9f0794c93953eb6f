"""Arithmetic in the base field F_p with the Mersenne prime p = 2^127 - 1.

FourQ (Costello-Longa, ASIACRYPT 2015) is defined over the quadratic
extension of GF(2^127 - 1).  Because p is a Mersenne prime, reduction
modulo p never needs an integer division: any integer ``z`` can be split
as ``z = u * 2^127 + v`` and, since ``2^127 === 1 (mod p)``, folded to
``u + v``.  This module implements that fold (the same trick the paper's
datapath uses, see Algorithm 2 of the paper) together with the usual
field operations.

Elements are represented as plain Python ints in ``[0, p)``.  A light
class wrapper :class:`Fp` is provided for ergonomic code; the low-level
functions operate on raw ints and are what the rest of the library uses
in hot paths.
"""

from __future__ import annotations

from typing import Union

#: The field characteristic, the Mersenne prime 2^127 - 1.
P127 = (1 << 127) - 1

#: Number of bits of the characteristic.
P_BITS = 127

_MASK127 = (1 << 127) - 1


def fp_reduce(z: int) -> int:
    """Reduce a non-negative integer into ``[0, p)`` using Mersenne folds.

    Repeatedly rewrites ``z = u*2^127 + v  ->  u + v`` until the value
    fits in 127 bits, then performs the final conditional subtraction.
    This mirrors the hardware reduction path: a wide product needs at
    most two folds plus one conditional subtract.
    """
    while z >> P_BITS:
        z = (z & _MASK127) + (z >> P_BITS)
    if z == P127:
        return 0
    return z


def fp_normalize(z: int) -> int:
    """Reduce an arbitrary (possibly negative) integer into ``[0, p)``."""
    z %= P127
    return z


def fp_add(a: int, b: int) -> int:
    """Return ``a + b mod p`` for inputs already in ``[0, p)``."""
    s = a + b
    if s >= P127:
        s -= P127
    return s


def fp_sub(a: int, b: int) -> int:
    """Return ``a - b mod p`` for inputs already in ``[0, p)``."""
    s = a - b
    if s < 0:
        s += P127
    return s


def fp_neg(a: int) -> int:
    """Return ``-a mod p`` for input already in ``[0, p)``."""
    if a == 0:
        return 0
    return P127 - a


def fp_mul(a: int, b: int) -> int:
    """Return ``a * b mod p`` using the Mersenne fold reduction."""
    return fp_reduce(a * b)


def fp_sqr(a: int) -> int:
    """Return ``a^2 mod p``."""
    return fp_reduce(a * a)


def fp_pow(a: int, e: int) -> int:
    """Return ``a^e mod p`` (``e >= 0``)."""
    return pow(a, e, P127)


def fp_inv(a: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo p.

    Uses CPython's extended-Euclid modular inverse, ``pow(a, -1, p)``,
    about 4x faster than Fermat's ``a^(p-2)`` on a 127-bit operand.
    This is the host layer only: the datapath has no divider and still
    inverts by the squaring/multiplication chain of
    :func:`repro.curve.edwards.fp2_inverse_chain`, so no traced program
    or cycle count depends on this function.

    Raises:
        ZeroDivisionError: if ``a == 0 (mod p)``.
    """
    a %= P127
    if a == 0:
        raise ZeroDivisionError("inverse of zero in F_p")
    return pow(a, -1, P127)


def fp_sqrt(a: int) -> Union[int, None]:
    """Return a square root of ``a`` in F_p, or ``None`` if ``a`` is a non-residue.

    Since ``p === 3 (mod 4)`` the root, when it exists, is simply
    ``a^((p+1)/4)``.
    """
    a %= P127
    if a == 0:
        return 0
    r = pow(a, (P127 + 1) // 4, P127)
    if r * r % P127 != a:
        return None
    return r


def fp_is_square(a: int) -> bool:
    """Return True iff ``a`` is a quadratic residue modulo p (0 counts)."""
    a %= P127
    if a == 0:
        return True
    return pow(a, (P127 - 1) // 2, P127) == 1


class Fp:
    """An element of F_p with operator overloading.

    This wrapper keeps its value normalized to ``[0, p)`` and supports
    mixed arithmetic with plain ints.  It exists for readable high-level
    code (tests, examples, the reference curve implementation); the raw
    ``fp_*`` functions are preferred inside inner loops.
    """

    __slots__ = ("value",)

    def __init__(self, value: Union[int, "Fp"] = 0):
        if isinstance(value, Fp):
            self.value = value.value
        else:
            self.value = value % P127

    # -- conversions -------------------------------------------------
    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Fp({hex(self.value)})"

    # -- comparisons -------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, Fp):
            return self.value == other.value
        if isinstance(other, int):
            return self.value == other % P127
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Fp", self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    # -- arithmetic --------------------------------------------------
    @staticmethod
    def _coerce(other: Union[int, "Fp"]) -> int:
        if isinstance(other, Fp):
            return other.value
        if isinstance(other, int):
            return other % P127
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Union[int, "Fp"]) -> "Fp":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return Fp(fp_add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other: Union[int, "Fp"]) -> "Fp":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return Fp(fp_sub(self.value, v))

    def __rsub__(self, other: Union[int, "Fp"]) -> "Fp":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return Fp(fp_sub(v, self.value))

    def __mul__(self, other: Union[int, "Fp"]) -> "Fp":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return Fp(fp_mul(self.value, v))

    __rmul__ = __mul__

    def __neg__(self) -> "Fp":
        return Fp(fp_neg(self.value))

    def __pow__(self, e: int) -> "Fp":
        if e < 0:
            return Fp(fp_inv(self.value)) ** (-e)
        return Fp(pow(self.value, e, P127))

    def __truediv__(self, other: Union[int, "Fp"]) -> "Fp":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return Fp(fp_mul(self.value, fp_inv(v)))

    def __rtruediv__(self, other: Union[int, "Fp"]) -> "Fp":
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented  # type: ignore[return-value]
        return Fp(fp_mul(v, fp_inv(self.value)))

    # -- field-specific helpers -------------------------------------
    def inverse(self) -> "Fp":
        """Multiplicative inverse."""
        return Fp(fp_inv(self.value))

    def sqrt(self) -> Union["Fp", None]:
        """A square root in F_p, or ``None`` for a non-residue."""
        r = fp_sqrt(self.value)
        return None if r is None else Fp(r)

    def is_square(self) -> bool:
        """True iff this element is a quadratic residue."""
        return fp_is_square(self.value)
