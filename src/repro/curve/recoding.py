"""GLV-SAC recoding of the four sub-scalars (paper Alg. 1, steps 4-5).

After decomposition, the four positive sub-scalars (a1, a2, a3, a4)
(a1 odd) are recoded into 65 signed digit pairs

    (d_64, ..., d_0)  with  d_i in [0, 7]   (the table index v_i)
    (m_64, ..., m_0)  with  m_i in {-1, 0}  (the sign mask; the paper's
                                             step 5 maps m_i = -1 -> s_i = +1
                                             and m_i = 0 -> s_i = -1)

such that the double-and-add loop

    Q = s_64 * T[d_64];  for i = 63..0:  Q = 2Q;  Q = Q + s_i * T[d_i]

computes [a1]P + [a2]phi(P) + [a3]psi(P) + [a4]psi(phi(P)) with the
8-entry table T[u] = P + u0*phi(P) + u1*psi(P) + u2*psi(phi(P)).

This is the GLV-SAC ("sign-aligned column") recoding of
Faz-Hernandez-Longa-Sanchez used by FourQ: a1 acts as the sign aligner
(recoded into digits b1_i in {+-1}; possible exactly because a1 is odd)
and each other scalar is recoded with digits in {0, b1_i}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class RecodedScalar:
    """The recoded multi-scalar: table indices and signs, MSB first at the end.

    ``digits[i]`` and ``signs[i]`` correspond to weight 2^i; the main
    loop consumes them from index ``length-1`` down to 0.
    """

    digits: Tuple[int, ...]   # d_i in [0, 7]
    signs: Tuple[int, ...]    # s_i in {+1, -1}

    @property
    def length(self) -> int:
        return len(self.digits)

    @property
    def masks(self) -> Tuple[int, ...]:
        """The paper's m_i encoding: -1 where s_i = +1, 0 where s_i = -1."""
        return tuple(-1 if s == 1 else 0 for s in self.signs)

    @property
    def iterations(self) -> int:
        """Number of double-and-add loop iterations (length - 1)."""
        return len(self.digits) - 1


def recode_glv_sac(scalars: Sequence[int], length: int = 65) -> RecodedScalar:
    """Recode four positive sub-scalars into (d_i, s_i) digit pairs.

    Args:
        scalars: (a1, a2, a3, a4); a1 must be odd and positive; all must
            satisfy ``a_j < 2^(length-1)`` (a1 may use the top bit:
            ``a1 < 2^length`` with the canonical +1 top digit).
        length: number of digits (65 for FourQ's 64-bit sub-scalars).

    Returns:
        A :class:`RecodedScalar` with ``length`` digit/sign pairs.

    Raises:
        ValueError: on a non-odd a1 or out-of-range scalars.
    """
    if len(scalars) != 4:
        raise ValueError("expected exactly four sub-scalars")
    a1, a2, a3, a4 = (int(s) for s in scalars)
    if a1 <= 0 or a1 % 2 == 0:
        raise ValueError("a1 must be positive and odd")
    if any(a < 0 for a in (a2, a3, a4)):
        raise ValueError("sub-scalars must be non-negative")
    if a1.bit_length() > length:
        raise ValueError(f"a1 needs {a1.bit_length()} digits > length={length}")

    # Sign-aligner digits: b1_i in {+1, -1} with sum(b1_i 2^i) = a1.
    # For odd a1: b1_{length-1} = +1, b1_i = 2*bit_{i+1}(a1) - 1.
    b1: List[int] = []
    for i in range(length - 1):
        b1.append(1 if (a1 >> (i + 1)) & 1 else -1)
    b1.append(1)

    # Verify the aligner (cheap and catches range violations).
    if sum(b * (1 << i) for i, b in enumerate(b1)) != a1:
        raise ValueError(
            f"a1 = {a1} cannot be sign-aligned in {length} digits"
        )

    # Other scalars: digits in {0, b1_i}.
    def recode_follower(a: int) -> List[int]:
        out: List[int] = []
        for i in range(length):
            bit = a & 1
            digit = b1[i] * bit
            # a <- floor(a/2) - floor(digit/2); floor(-1/2) = -1.
            a = (a >> 1) + (1 if digit == -1 else 0)
            out.append(digit)
        if a != 0:
            raise ValueError("follower scalar out of range for recoding length")
        return out

    b2 = recode_follower(a2)
    b3 = recode_follower(a3)
    b4 = recode_follower(a4)

    digits = tuple(
        abs(b2[i]) + 2 * abs(b3[i]) + 4 * abs(b4[i]) for i in range(length)
    )
    signs = tuple(b1)
    return RecodedScalar(digits=digits, signs=signs)


def recoded_to_scalars(rec: RecodedScalar) -> Tuple[int, int, int, int]:
    """Inverse of :func:`recode_glv_sac` (used by the round-trip tests)."""
    a1 = sum(s * (1 << i) for i, s in enumerate(rec.signs))
    a2 = sum(rec.signs[i] * ((rec.digits[i] >> 0) & 1) * (1 << i) for i in range(rec.length))
    a3 = sum(rec.signs[i] * ((rec.digits[i] >> 1) & 1) * (1 << i) for i in range(rec.length))
    a4 = sum(rec.signs[i] * ((rec.digits[i] >> 2) & 1) * (1 << i) for i in range(rec.length))
    return (a1, a2, a3, a4)
