"""Scalar multiplication on FourQ — the paper's Algorithm 1 and references.

The centerpiece is :func:`scalar_mul_fourq`, the endomorphism-accelerated
variable-base scalar multiplication exactly as in the paper:

1. compute phi(P), psi(P), psi(phi(P));
2. build the 8-entry table T[u] = P + [u0]phi(P) + [u1]psi(P)
   + [u2]psi(phi(P)) in (Y+X, Y-X, 2Z, 2dT) coordinates;
3. decompose k into four 64-bit positive sub-scalars, a1 odd;
4. recode into 65 (digit, sign) pairs;
5. run 64 double-and-add iterations (15 F_{p^2} muls + 13 add/subs per
   iteration on the target datapath);
6. normalize with one inversion.

Steps 2-6 run through the op-exact extended-coordinate formulas of
:mod:`repro.curve.edwards` parameterized by an ops object, so the same
function both computes the result (RawFp2Ops) and, with the tracer's
recording ops, emits the microinstruction stream the hardware scheduler
consumes.

Reference algorithms (plain double-and-add, Montgomery-style ladder,
wNAF) are provided for verification and for the paper's iteration-count
comparison (256 doublings vs 64).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .decompose import FourQDecomposer
from .edwards import (
    RAW_OPS,
    Fp2Ops,
    PointR1,
    PointR2,
    ecc_add_core,
    ecc_double,
    ecc_normalize,
    point_r1_from_affine,
    r1_to_r2,
    r2_negate,
    r2_select,
)
from .endomorphisms import (
    EndomorphismProvider,
    default_decomposer,
    default_endomorphisms,
)
from .point import AffinePoint
from .recoding import RecodedScalar, recode_glv_sac


def build_table(
    p_r1: PointR1,
    phi_p: PointR1,
    psi_p: PointR1,
    psiphi_p: PointR1,
    ops: Fp2Ops = RAW_OPS,
) -> List[PointR2]:
    """Build the 8-entry lookup table of the paper's Algorithm 1, step 2.

    T[u] for u = (u2, u1, u0) is P + [u0]phi(P) + [u1]psi(P)
    + [u2]psi(phi(P)), stored in (Y+X, Y-X, 2Z, 2dT) coordinates.
    Built with 7 extended-coordinate additions arranged as a Gray-style
    accumulation (each entry adds one base to an earlier entry).
    """
    bases = [r1_to_r2(phi_p, ops), r1_to_r2(psi_p, ops), r1_to_r2(psiphi_p, ops)]
    entries: List[PointR1] = [None] * 8  # type: ignore[list-item]
    entries[0] = p_r1
    for bit, base in enumerate(bases):
        stride = 1 << bit
        for idx in range(stride):
            entries[stride + idx] = ecc_add_core(entries[idx], base, ops)
    return [r1_to_r2(e, ops) for e in entries]


def fourq_main_loop(
    table: Sequence[PointR2],
    recoded: RecodedScalar,
    ops: Fp2Ops = RAW_OPS,
) -> PointR1:
    """Steps 6-10 of the paper's Algorithm 1: the double-and-add loop.

    Q = s_64 * T[v_64]; then for i = 63..0: Q = [2]Q; Q = Q + s_i T[v_i].
    Each iteration costs 15 multiplications + 13 additions/subtractions
    on the F_{p^2} datapath (Fig. 2(b) of the paper).
    """
    table = list(table)
    last = recoded.length - 1
    first = r2_select(table, recoded.digits[last], ops)
    if recoded.signs[last] == -1:
        first = r2_negate(first, ops)
    # Seed Q from a table entry: convert R2 -> R1 via addition with the
    # identity would waste ops; instead reconstruct the R1 directly.
    q = _r2_to_r1(first, ops)
    for i in range(last - 1, -1, -1):
        q = ecc_double(q, ops)
        entry = r2_select(table, recoded.digits[i], ops)
        # Constant-time pattern: the negation is always computed (one
        # add/sub slot) and muxes pick the signed entry, so the issued
        # op sequence and the generated schedule are identical for every
        # scalar — the paper's fixed 15M + 13A iteration.
        negated = r2_negate(entry, ops)
        q = ecc_add_core(q, _r2_sign_select(entry, negated, recoded.signs[i], ops), ops)
    return q


def _r2_sign_select(entry, negated, sign: int, ops: Fp2Ops):
    """Constant-time +-T[v] selection (mux per affected coordinate)."""
    if sign == -1:
        return PointR2(
            ops.select(negated.yx_plus, entry.yx_plus, entry.yx_minus),
            ops.select(negated.yx_minus, entry.yx_plus, entry.yx_minus),
            entry.z2,
            ops.select(negated.t2d, entry.t2d, negated.t2d),
        )
    return PointR2(
        ops.select(entry.yx_plus, entry.yx_plus, entry.yx_minus),
        ops.select(entry.yx_minus, entry.yx_plus, entry.yx_minus),
        entry.z2,
        ops.select(entry.t2d, entry.t2d, negated.t2d),
    )


def _r2_to_r1(entry: PointR2, ops: Fp2Ops) -> PointR1:
    """Seed a working R1 point from a table entry (2 add/sub).

    From (Y+X, Y-X, 2Z, 2dT) the projective triple
    ((Y+X)-(Y-X) : (Y+X)+(Y-X) : 2Z) = (2X : 2Y : 2Z) is the original
    point.  The extended coordinate cannot be recovered without a
    division by d, so Ta/Tb are filled with placeholders — this is safe
    because the main loop's first operation on the seed is a doubling,
    which reads only (X, Y, Z) and regenerates valid Ta/Tb.  Do not feed
    the seed directly into an addition.
    """
    x2 = ops.sub(entry.yx_plus, entry.yx_minus)   # 2X
    y2 = ops.add(entry.yx_plus, entry.yx_minus)   # 2Y
    return PointR1(x2, y2, entry.z2, x2, y2)


def double_base_main_loop(
    tables: Sequence[Sequence[PointR2]],
    recs: Sequence[RecodedScalar],
    ops: Fp2Ops = RAW_OPS,
) -> PointR1:
    """The Straus-Shamir loop of [u1]P1 + [u2]P2 over two 8-entry tables.

    Both recodings share one chain of 64 doublings; each iteration adds
    one signed entry of each table.  Like :func:`fourq_main_loop`, the
    negation is always computed and muxed, so the op sequence is the
    same for every pair of scalars.
    """
    q: Optional[PointR1] = None
    for i in range(recs[0].length - 1, -1, -1):
        if q is not None:
            q = ecc_double(q, ops)
        for table, rec in zip(tables, recs):
            entry = r2_select(table, rec.digits[i], ops)
            negated = r2_negate(entry, ops)
            chosen = _r2_sign_select(entry, negated, rec.signs[i], ops)
            if q is None:
                # Unlike the single-scalar loop, the very next operation
                # on the seed is an *addition* (the second base's entry),
                # so the seed needs a valid extended coordinate.
                q = _reseed_with_valid_t(chosen, ops)
            else:
                q = ecc_add_core(q, chosen, ops)
    assert q is not None
    return q


def _recode(k: int, decomposer: FourQDecomposer) -> RecodedScalar:
    """Steps 3-4 of Algorithm 1: decompose ``k``, recode into 65 digits."""
    return recode_glv_sac(decomposer.decompose(k).scalars)


def _endo_table(pt: AffinePoint, endo: EndomorphismProvider) -> List[PointR2]:
    """Steps 1-2 of Algorithm 1: phi(P), psi(P), psi(phi(P)), then the table."""
    phi_p = endo.phi(pt)
    psi_p = endo.psi(pt)
    psiphi_p = endo.psi(phi_p)
    return build_table(
        point_r1_from_affine(pt.x, pt.y),
        point_r1_from_affine(phi_p.x, phi_p.y),
        point_r1_from_affine(psi_p.x, psi_p.y),
        point_r1_from_affine(psiphi_p.x, psiphi_p.y),
    )


def scalar_mul_fourq(
    k: int,
    pt: AffinePoint,
    endo: Optional[EndomorphismProvider] = None,
    decomposer: Optional[FourQDecomposer] = None,
) -> AffinePoint:
    """Variable-base scalar multiplication [k]P via Algorithm 1.

    Args:
        k: any integer scalar (taken modulo N internally).
        pt: a point of the order-N cryptographic subgroup.  Results for
            points outside the subgroup are undefined (the eigenvalue
            identity phi(P) = [lambda]P only holds there) — use
            ``pt.clear_cofactor()`` first if unsure.
        endo / decomposer: override the default (derived) providers.

    Returns:
        The affine point [k mod N] P.
    """
    if pt.is_identity():
        return AffinePoint.identity()
    table = _endo_table(pt, endo or default_endomorphisms())
    q = fourq_main_loop(table, _recode(k, decomposer or default_decomposer()))
    x, y = ecc_normalize(q)
    return AffinePoint(x, y, check=False)


def scalar_mul_double_base(
    u1: int, u2: int, p1: AffinePoint, p2: AffinePoint
) -> AffinePoint:
    """Double-scalar multiplication [u1]P1 + [u2]P2 (signature verify).

    ECDSA/Schnorr verification computes exactly this shape (paper
    Section II-A, verification step 4).  Uses the Straus-Shamir trick
    on top of the endomorphism decomposition: both scalars are
    4-D-decomposed and their recodings interleaved, so the combined
    loop still performs only 64 doublings (plus two additions per
    iteration) instead of two separate scalar multiplications.
    """
    if p1.is_identity():
        return scalar_mul_fourq(u2, p2)
    if p2.is_identity():
        return scalar_mul_fourq(u1, p1)
    endo, decomposer = default_endomorphisms(), default_decomposer()
    q = double_base_main_loop(
        [_endo_table(p, endo) for p in (p1, p2)],
        [_recode(u, decomposer) for u in (u1, u2)],
    )
    x, y = ecc_normalize(q)
    return AffinePoint(x, y, check=False)


def _reseed_with_valid_t(entry: PointR2, ops: Fp2Ops) -> PointR1:
    """R2 -> R1 with a *valid* extended coordinate (2 add/sub + 3 muls).

    From (Y+X, Y-X, 2Z, 2dT) recover (2X, 2Y) and scale the projective
    triple by 2Z:  (X', Y', Z') = (2X*2Z, 2Y*2Z, (2Z)^2) with Ta = 2X,
    Tb = 2Y.  Then Ta*Tb*Z' = 2X*2Y*(2Z)^2 = X'*Y', so the extended-
    coordinate invariant holds and the seed can feed an addition
    directly (unlike :func:`_r2_to_r1`, whose seed only tolerates a
    doubling).
    """
    two_x = ops.sub(entry.yx_plus, entry.yx_minus)
    two_y = ops.add(entry.yx_plus, entry.yx_minus)
    x_new = ops.mul(two_x, entry.z2)
    y_new = ops.mul(two_y, entry.z2)
    z_new = ops.sqr(entry.z2)
    return PointR1(x_new, y_new, z_new, two_x, two_y)


# ---------------------------------------------------------------------
# Reference scalar multiplications (paper Section II-A baselines)
# ---------------------------------------------------------------------


def scalar_mul_double_and_add(k: int, pt: AffinePoint) -> AffinePoint:
    """Plain left-to-right double-and-add on extended coordinates.

    The "conventional repetitive double-and-add method" of Section II-A:
    one doubling per scalar bit plus one addition per set bit (~256
    doublings + ~128 additions for a 256-bit k).
    """
    if k < 0:
        return scalar_mul_double_and_add(-k, -pt)
    if k == 0 or pt.is_identity():
        return AffinePoint.identity()
    base_r2 = r1_to_r2(point_r1_from_affine(pt.x, pt.y))
    q: Optional[PointR1] = None
    for bit in bin(k)[2:]:
        if q is not None:
            q = ecc_double(q)
        if bit == "1":
            if q is None:
                q = point_r1_from_affine(pt.x, pt.y)
            else:
                q = ecc_add_core(q, base_r2)
    assert q is not None
    x, y = ecc_normalize(q)
    return AffinePoint(x, y, check=False)


def scalar_mul_always_double_add(k: int, pt: AffinePoint) -> AffinePoint:
    """Constant-pattern double-and-always-add (SPA-hardened baseline).

    Performs an addition every iteration (discarding it when the bit is
    zero), modelling the uniform-trace variant used in side-channel
    protected designs; the op count is what the energy model charges
    for the protected P-256 baseline comparison.
    """
    if k < 0:
        return scalar_mul_always_double_add(-k, -pt)
    if k == 0 or pt.is_identity():
        return AffinePoint.identity()
    base_r2 = r1_to_r2(point_r1_from_affine(pt.x, pt.y))
    q = point_r1_from_affine(pt.x, pt.y)
    for bit in bin(k)[3:]:
        q = ecc_double(q)
        added = ecc_add_core(q, base_r2)
        if bit == "1":
            q = added
    x, y = ecc_normalize(q)
    return AffinePoint(x, y, check=False)


def wnaf_terms(k: int, width: int) -> List[Tuple[int, int]]:
    """Width-w NAF of ``k >= 0`` as sparse ``(bit position, digit)`` terms.

    Every digit is odd with ``|d| < 2^(w-1)``, any ``w`` consecutive
    positions hold at most one of them, and ``sum d * 2^pos == k``.
    Zero runs are skipped whole, so the cost is one step per term
    rather than one per bit.
    """
    full = 1 << width
    half = full >> 1
    terms: List[Tuple[int, int]] = []
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & (full - 1)
        if d >= half:
            d -= full
        terms.append((pos, d))
        # k - d is divisible by 2^w: the next w positions are zero.
        k = (k - d) >> width
        pos += width
    return terms


def odd_multiples(pt: AffinePoint, count: int) -> List[PointR2]:
    """The wNAF table [P, 3P, 5P, ..., (2*count - 1)P] in R2 coordinates.

    One doubling, ``count - 1`` additions of 2P and one R1 -> R2
    conversion per entry; entry ``j`` serves the digits ``+-(2j + 1)``.
    """
    p1 = point_r1_from_affine(pt.x, pt.y)
    table = [r1_to_r2(p1)]
    if count > 1:
        two_p = r1_to_r2(ecc_double(p1))
        current = p1
        for _ in range(count - 1):
            current = ecc_add_core(current, two_p)
            table.append(r1_to_r2(current))
    return table


def scalar_mul_wnaf(k: int, pt: AffinePoint, width: int = 4) -> AffinePoint:
    """Width-w NAF scalar multiplication (windowed baseline).

    Uses a 2^(w-2)-entry odd-multiple table; the best non-endomorphism
    variable-base method, used to quantify what the 4-D decomposition
    buys on top of ordinary windowing.
    """
    if k < 0:
        return scalar_mul_wnaf(-k, -pt, width)
    if k == 0 or pt.is_identity():
        return AffinePoint.identity()
    odd = odd_multiples(pt, 1 << (width - 2))
    digits = dict(wnaf_terms(k, width))
    q: Optional[PointR1] = None
    for i in range(max(digits), -1, -1):
        if q is not None:
            q = ecc_double(q)
        d = digits.get(i)
        if d:
            entry = odd[abs(d) // 2]
            if d < 0:
                entry = r2_negate(entry)
            if q is None:
                q = _r2_to_r1(entry, RAW_OPS)
            else:
                q = ecc_add_core(q, entry)
    assert q is not None
    x, y = ecc_normalize(q)
    return AffinePoint(x, y, check=False)
