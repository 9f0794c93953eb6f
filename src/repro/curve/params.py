"""FourQ curve parameters and their self-verification.

FourQ (Costello-Longa, ASIACRYPT 2015; paper reference [7]) is the
complete twisted Edwards curve

    E / F_{p^2} :  -x^2 + y^2 = 1 + d x^2 y^2,     p = 2^127 - 1,

with ``d`` a non-square in F_{p^2} (making the addition law complete)
given in Section II-B of the paper.  The group E(F_{p^2}) has order
``392 * N`` with ``N`` a 246-bit prime; cryptographic operations run in
the order-N subgroup.

Every constant in this module is *verified computationally* by
:func:`verify_parameters` (and by the test suite):

* ``d`` matches the decimal value printed in the paper,
* the generator ``G`` satisfies the curve equation,
* ``[N]G`` is the identity and N is prime,
* the cofactor annihilates random curve points.

The endomorphism eigenvalues (sqrt(-5) and sqrt(2) mod N — degree-5 phi
and degree-2 psi) are derived at runtime in
:mod:`repro.curve.decompose`, not stored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..field.fp import P127
from ..field.fp2 import Fp2Raw, fp2_add, fp2_mul, fp2_sqr, fp2_sub

#: The field characteristic p = 2^127 - 1 (re-exported for convenience).
PRIME_P = P127

#: Curve constant d = d_re + d_im * i, from the paper (Section II-B).
D_IM = 125317048443780598345676279555970305165
D_RE = 4205857648805777768770
D: Fp2Raw = (D_RE, D_IM)

#: 2*d, precomputed — table entries are stored with a 2dT coordinate.
D2: Fp2Raw = ((2 * D_RE) % P127, (2 * D_IM) % P127)

#: Prime order of the cryptographic subgroup (246 bits).
SUBGROUP_ORDER_N = 0x29CBC14E5E0A72F05397829CBC14E5DFBD004DFE0F79992FB2540EC7768CE7

#: Cofactor: #E(F_{p^2}) = COFACTOR * N = 2^3 * 7^2 * N.
COFACTOR = 392

#: Full group order.
CURVE_ORDER = COFACTOR * SUBGROUP_ORDER_N

#: Generator of the order-N subgroup (affine x, y), as published with
#: FourQ and verified on-curve / of order N by this library's tests.
GENERATOR_X: Fp2Raw = (
    0x1A3472237C2FB305286592AD7B3833AA,
    0x1E1F553F2878AA9C96869FB360AC77F6,
)
GENERATOR_Y: Fp2Raw = (
    0x0E3FEE9BA120785AB924A2462BCBB287,
    0x6E1C4AF8630E024249A7C344844C8B5C,
)

#: Generators of the cofactor group Z_8 + Z_7 + Z_7 (affine x, y): T8 of
#: order 8, and T7, T7' of order 7 spanning the 7-torsion (T7' is not a
#: multiple of T7).  They are [49N]P and [8N]P for seeded random curve
#: points P; :func:`verify_parameters` checks their orders and
#: independence.  :mod:`repro.curve.tate` pairs against them to test
#: order-N subgroup membership.
T8_X: Fp2Raw = (
    0x17CBE1B8F02FB4048FFC1B7079C06760,
    0x43506315604D2FD3E255773D91663C14,
)
T8_Y: Fp2Raw = (
    0x43506315604D2FD3E255773D91663C14,
    0x68341E470FD04BFB7003E48F863F989F,
)
T7_X: Fp2Raw = (
    0x71FDCC6F95520CF90B8EFA11230F3540,
    0x4177B6C9FFAF50CC7EF3F0F0B5575E84,
)
T7_Y: Fp2Raw = (
    0x2ECD5669CDCFC9549A88E5A6B982CA32,
    0x5433AD4D3B0BEBFEA900A57793754173,
)
T7B_X: Fp2Raw = (
    0x3BD16E4B3E9DF7E18855848F6C641FFC,
    0x6FE7C72F17611147267186643DD8F61C,
)
T7B_Y: Fp2Raw = (
    0x058AA16EE6B83C86A6E53BBFD02FE55A,
    0x7D1C4B1355C37542FA00B82E618ED3D0,
)

#: Scalars are taken modulo 2^256 at the API boundary (paper Alg. 1).
SCALAR_BITS = 256


def curve_rhs_lhs(x: Fp2Raw, y: Fp2Raw) -> Tuple[Fp2Raw, Fp2Raw]:
    """Return (lhs, rhs) of the curve equation at (x, y).

    lhs = -x^2 + y^2,  rhs = 1 + d x^2 y^2.
    """
    x2 = fp2_sqr(x)
    y2 = fp2_sqr(y)
    lhs = fp2_sub(y2, x2)
    rhs = fp2_add((1, 0), fp2_mul(fp2_mul(D, x2), y2))
    return lhs, rhs


def is_on_curve(x: Fp2Raw, y: Fp2Raw) -> bool:
    """True iff the affine point (x, y) satisfies the FourQ equation."""
    lhs, rhs = curve_rhs_lhs(x, y)
    return lhs == rhs


@dataclass(frozen=True)
class CurveInfo:
    """A bundle of the public curve parameters (for documentation/UI)."""

    p: int
    d: Fp2Raw
    n: int
    cofactor: int
    generator: Tuple[Fp2Raw, Fp2Raw]

    @property
    def security_bits(self) -> int:
        """Approximate security level: half the subgroup-order bits."""
        return self.n.bit_length() // 2


#: The canonical parameter bundle.
FOURQ = CurveInfo(
    p=PRIME_P,
    d=D,
    n=SUBGROUP_ORDER_N,
    cofactor=COFACTOR,
    generator=(GENERATOR_X, GENERATOR_Y),
)


def verify_parameters(samples: int = 4) -> None:
    """Verify the embedded constants; raise AssertionError on any failure.

    Checks performed:

    1. the generator lies on the curve,
    2. N is a probable prime of 246 bits,
    3. [N]G = identity (so G generates a subgroup of order dividing N;
       N prime and G != O then give order exactly N),
    4. [392*N]P = identity for ``samples`` random curve points (so the
       full group order divides 392*N),
    5. T8, T7, T7' lie on the curve with exact orders 8, 7, 7, and
       T7' is not a multiple of T7 (so they generate the cofactor
       group Z_8 + Z_7 + Z_7).
    """
    from ..nt.primes import is_probable_prime
    from .point import AffinePoint, random_point

    assert is_on_curve(GENERATOR_X, GENERATOR_Y), "generator not on curve"
    assert SUBGROUP_ORDER_N.bit_length() == 246, "N has wrong bit length"
    assert is_probable_prime(SUBGROUP_ORDER_N), "N is not prime"

    g = AffinePoint(GENERATOR_X, GENERATOR_Y)
    assert (SUBGROUP_ORDER_N * g).is_identity(), "[N]G != O"
    assert not g.is_identity(), "generator is the identity"

    import random

    rng = random.Random(2019)
    for _ in range(samples):
        pt = random_point(rng)
        assert (CURVE_ORDER * pt).is_identity(), "cofactor*N does not annihilate"

    for x, y in ((T8_X, T8_Y), (T7_X, T7_Y), (T7B_X, T7B_Y)):
        assert is_on_curve(x, y), "torsion point not on curve"
    t8 = AffinePoint(T8_X, T8_Y)
    t7 = AffinePoint(T7_X, T7_Y)
    t7b = AffinePoint(T7B_X, T7B_Y)
    assert (8 * t8).is_identity() and not (4 * t8).is_identity(), "T8 order != 8"
    for t in (t7, t7b):
        assert (7 * t).is_identity() and not t.is_identity(), "T7 order != 7"
    assert all(j * t7 != t7b for j in range(7)), "T7' lies in <T7>"
