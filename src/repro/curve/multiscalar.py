"""Multi-scalar multiplication: sum_i [k_i] P_i for n points.

Batch signature verification — the ITS scenario's actual hot loop when
messages arrive from many vehicles — evaluates sums of scalar
multiples.  The host evaluates every one of them the same way
(:func:`multi_scalar_mul`, :class:`SchnorrBatch`): an
**interleaved width-w NAF** MSM.

* Each point gets a small table of odd multiples P, 3P, ...,
  (2^(w-1) - 1)P (:func:`_table`), its
  width chosen from its own scalar's length (:func:`wnaf_width`), and
  its scalar is recoded into sparse signed digits
  (:func:`repro.curve.scalarmult.wnaf_terms`).
* All columns share one doubling chain: at each bit position the
  accumulator doubles once and adds the (sign-selected) table entry of
  every column with a digit there.  Unlike a bucket method there is no
  per-window bucket fold, whose 2*(2^c - 1) additions dominate at the
  batch sizes this serving stack sees.
* Batch verification keeps its 128-bit weights short by applying them
  to negated points, and runs the generator term through a
  process-cached width-8 table (:data:`GENERATOR_WNAF_WIDTH`), so that
  column costs additions only.
* A :class:`SchnorrBatch` prepares each signature once (vetting,
  challenge, weight, columns) and then sums any subset of it, so
  locating a forgery by bisection repeats only the MSMs themselves.

Everything runs on the unified extended-coordinate formulas of
:mod:`repro.curve.edwards` (the host MSM, tables included, unrolls them
on integers: :func:`_add`, :func:`_double`); ``ecc_add_core`` is the a=-1
Hisil-Wong-Carter-Dawson addition, complete on the odd-order subgroup
(it handles the doubling and identity cases that repeated or
cancelling points produce — exercised explicitly by the test suite).

The **Pippenger bucket method** stays for the datapath:
:func:`msm_bucket_window` is the traced ASIC window kernel
(:func:`repro.trace.program.trace_msm_window`),
:func:`pippenger_cost_model` extrapolates its simulated cycles, and
:func:`multi_scalar_mul_pippenger` is the reference that checks the
kernel's window against whole sums.  It is not a host evaluation path.
"""

from __future__ import annotations

import secrets
from collections import defaultdict
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from ..field.fp import P127
from ..field.fp2 import fp2_inv, fp2_mul
from .edwards import (
    RAW_OPS,
    PointR1,
    PointR2,
    ecc_add_core,
    ecc_double,
    ecc_normalize,
    point_r1_from_affine,
    r1_to_r2,
    r2_negate,
)
from .params import D2, SUBGROUP_ORDER_N, is_on_curve
from .point import AffinePoint
from .scalarmult import _reseed_with_valid_t, wnaf_terms
from .tate import cofactor_pairings_trivial

# --------------------------------------------------------------------------
# Tunables.  tests/test_multiscalar.py pins their values and invariants
# so a retune is a deliberate, reviewed act (re-run
# ``benchmarks/bench_msm.py`` before changing any).
# --------------------------------------------------------------------------

#: wNAF width of the generator column of :func:`batch_verify_schnorr`:
#: a process-cached table of the 2^(w-2) = 64 odd multiples G, 3G, ...,
#: 127G, built on first use.  A 246-bit scalar then costs about 27
#: additions and no doublings of its own (the chain is shared).
GENERATOR_WNAF_WIDTH = 8

#: Widths :func:`wnaf_width` chooses among for a per-point table.
WNAF_WIDTH_MIN = 2
WNAF_WIDTH_MAX = 6

#: Window-width clamp for :func:`pippenger_window_bits`.  Below 2 bits
#: the bucket method degenerates (one bucket per window); above 8 bits
#: the 2^c-bucket fold swamps any batch size this serving stack sees
#: (the fold costs ~2*2^c adds per window against n/2^c saved per
#: point).
PIPPENGER_WINDOW_MIN = 2
PIPPENGER_WINDOW_MAX = 8

#: Scalar bit-width the window heuristic and cost model assume
#: (scalars are reduced mod the ~246-bit subgroup order before
#: windowing).
MSM_SCALAR_BITS = 246


def _wnaf_column_mults(bits: int, width: int, table_cached: bool = False) -> float:
    """Expected multiplier ops of one wNAF column, chain excluded.

    From the formula costs: the table is 2M for P's R2 form, then (for
    more than one entry) a doubling and its conversion (7M + 2M) and an
    addition plus conversion (8M + 2M) per further entry; the loop adds
    one table entry (8M) per nonzero digit, about ``bits / (w + 1)`` of
    them.
    """
    entries = 1 << (width - 2)
    table = 0 if table_cached else 2 + (9 + 10 * (entries - 1) if entries > 1 else 0)
    return table + 8 * bits / (width + 1)


def wnaf_width(bits: int) -> int:
    """wNAF width for a ``bits``-long scalar: the cheapest table + loop.

    About 4 for the 128-bit batch weights and 5 for full 246-bit
    scalars (:func:`_wnaf_column_mults`).
    """
    return min(
        range(WNAF_WIDTH_MIN, WNAF_WIDTH_MAX + 1),
        key=lambda w: _wnaf_column_mults(bits, w),
    )


def wnaf_msm_cost_model(column_bits: Sequence[int], generator_bits: int = 0) -> int:
    """Expected multiplier ops of one interleaved wNAF MSM.

    ``column_bits`` lists the scalar length of every per-point column;
    ``generator_bits`` is the length of the generator column (0: none),
    whose table is cached.  The shared chain doubles (7M) once per bit
    of the longest scalar.  Rounded to a whole op.
    """
    chain = max(list(column_bits) + [generator_bits], default=0)
    mults = 7 * chain + sum(
        _wnaf_column_mults(bits, wnaf_width(bits)) for bits in column_bits
    )
    if generator_bits:
        mults += _wnaf_column_mults(generator_bits, GENERATOR_WNAF_WIDTH, table_cached=True)
    return round(mults)


def pippenger_window_bits(n: int) -> int:
    """Window width (bucket digit bits) for an n-point Pippenger MSM.

    The classic balance point: bucket aggregation costs ~2*2^c adds per
    window while the per-point work saves bits/c adds, giving
    c ~ log2(n), clamped to [:data:`PIPPENGER_WINDOW_MIN`,
    :data:`PIPPENGER_WINDOW_MAX`].
    """
    return max(PIPPENGER_WINDOW_MIN,
               min(PIPPENGER_WINDOW_MAX, n.bit_length() - 1))


def msm_bucket_window(
    acc: Optional[PointR1],
    point_r2s: Sequence[PointR2],
    digits: Sequence[int],
    window: int,
    ops=RAW_OPS,
) -> Optional[PointR1]:
    """One Pippenger window: shift, bucket-accumulate, fold.

    Doubles ``acc`` ``window`` times (shifting the accumulator past the
    digits already processed), adds every point with a nonzero digit
    into its bucket, then folds the buckets with the running-sum trick:
    iterating buckets from the top digit down, ``running`` accumulates
    B_top + ... + B_d and ``wsum`` accumulates the runnings, so that
    ``wsum`` ends at sum_d d*B_d without any per-bucket scalar
    multiplications.

    This is the serving hot loop *and* the traced ASIC kernel: the same
    sequence of field operations runs with ``ops=RAW_OPS`` here and
    with a :class:`~repro.trace.tracer.Tracer` in
    :func:`repro.trace.program.trace_msm_window`.

    Args:
        acc: running accumulator (R1) from higher windows, or ``None``.
        point_r2s: the batch points, pre-converted to R2.
        digits: this window's digit per point, each in [0, 2^window).
        window: digit width in bits.
        ops: field-operation provider (RAW_OPS or a Tracer).

    Returns:
        The new accumulator, or ``None`` if there is still nothing to
        accumulate.
    """
    if acc is not None:
        for _ in range(window):
            acc = ecc_double(acc, ops)
    buckets: List[Optional[PointR1]] = [None] * ((1 << window) - 1)
    for r2, digit in zip(point_r2s, digits):
        if digit == 0:
            continue
        held = buckets[digit - 1]
        if held is None:
            # First occupant: R2 -> R1 re-seed (cheaper than a fake add).
            buckets[digit - 1] = _reseed_with_valid_t(r2, ops)
        else:
            buckets[digit - 1] = ecc_add_core(held, r2, ops)
    running: Optional[PointR1] = None
    wsum: Optional[PointR1] = None
    for bucket in reversed(buckets):
        if bucket is not None:
            running = (
                bucket
                if running is None
                else ecc_add_core(running, r1_to_r2(bucket, ops), ops)
            )
        if running is not None:
            wsum = (
                running
                if wsum is None
                else ecc_add_core(wsum, r1_to_r2(running, ops), ops)
            )
    if wsum is None:
        return acc
    if acc is None:
        return wsum
    return ecc_add_core(acc, r1_to_r2(wsum, ops), ops)


def pippenger_cost_model(
    n: int, window: Optional[int] = None, bits: int = MSM_SCALAR_BITS
) -> Tuple[int, int]:
    """Estimated (multiplier_ops, addsub_ops) for an n-point bucket MSM.

    Counts F_{p^2} unit ops from the formula costs: doubling 7M+6A
    (squarings issue on the multiplier), addition 8M+6A, R1->R2
    conversion 2M+3A, bucket re-seed 3M+2A.  Bucket additions assume
    every digit is nonzero (the worst case and, for random scalars,
    nearly the average once n >> 2^window).  Used by the serving layer
    to extrapolate simulated cycles from the traced window kernel.
    """
    if n <= 0:
        return (0, 0)
    c = window or pippenger_window_bits(n)
    n_windows = -(-bits // c)
    doubles = bits  # c doublings per window after the first
    bucket_adds = n * n_windows
    bucket_seeds = min(n, (1 << c) - 1) * n_windows
    fold_adds = 2 * min(n, (1 << c) - 1) * n_windows
    fold_convs = fold_adds + n_windows  # R1->R2 per fold add + acc merge
    mults = (
        7 * doubles
        + 8 * (bucket_adds + fold_adds)
        + 3 * bucket_seeds
        + 2 * (fold_convs + n)  # + initial R2 conversion of each point
    )
    addsubs = (
        6 * doubles
        + 6 * (bucket_adds + fold_adds)
        + 2 * bucket_seeds
        + 3 * (fold_convs + n)
    )
    return (mults, addsubs)


def multi_scalar_mul_pippenger(
    scalars: Sequence[int],
    points: Sequence[AffinePoint],
    window: Optional[int] = None,
) -> AffinePoint:
    """Compute sum_i [k_i] P_i with the bucket method.

    Args:
        scalars: any integers (reduced mod N internally).
        points: order-N points, same length as ``scalars``.
        window: digit width override (default:
            :func:`pippenger_window_bits`).

    Returns:
        The affine sum; the identity for an empty batch.

    Raises:
        ValueError: on length mismatch.
    """
    if len(scalars) != len(points):
        raise ValueError("scalars and points must have equal length")
    pairs = [
        (k % SUBGROUP_ORDER_N, pt)
        for k, pt in zip(scalars, points)
        if not pt.is_identity()
    ]
    pairs = [(k, pt) for k, pt in pairs if k]
    if not pairs:
        return AffinePoint.identity()
    ops = RAW_OPS
    c = window or pippenger_window_bits(len(pairs))
    point_r2s = [
        r1_to_r2(point_r1_from_affine(pt.x, pt.y, ops), ops) for _, pt in pairs
    ]
    bits = max(k.bit_length() for k, _ in pairs)
    n_windows = -(-bits // c)
    mask = (1 << c) - 1
    acc: Optional[PointR1] = None
    for w in range(n_windows - 1, -1, -1):
        shift = w * c
        digits = [(k >> shift) & mask for k, _ in pairs]
        acc = msm_bucket_window(acc, point_r2s, digits, c, ops)
    if acc is None:  # pragma: no cover - nonzero scalars guarantee output
        return AffinePoint.identity()
    x, y = ecc_normalize(acc, ops)
    return AffinePoint(x, y, check=False)


# --------------------------------------------------------------------------
# The host MSM's point arithmetic.  These are exactly the formulas of
# repro.curve.edwards (ecc_double, ecc_add_core, r1_to_r2 and
# scalarmult._reseed_with_valid_t), unrolled on the integer halves of
# each F_{p^2} value: every product is reduced mod p, a sum or difference
# only where it feeds a product.  CPython spends more on the generic
# formulas' per-operation calls and point objects than on the arithmetic.
# --------------------------------------------------------------------------

#: A working point in R1, (X, Y, Z, Ta, Tb), as ten integers: each
#: coordinate's real then imaginary part.
_Acc = Tuple[int, int, int, int, int, int, int, int, int, int]
#: A table entry in R2, (Y+X, Y-X, 2Z, 2dT), as eight integers.
_Entry = Tuple[int, int, int, int, int, int, int, int]

_D2_RE, _D2_IM = D2


def _double(acc: _Acc) -> _Acc:
    """:func:`repro.curve.edwards.ecc_double`: G = Y^2 - X^2,
    H = X^2 + Y^2, E = (X+Y)^2 - H, F = 2Z^2 - G;
    (X, Y, Z, Ta, Tb) = (E*F, G*H, G*F, E, H)."""
    x0, x1, y0, y1, z0, z1, _, _, _, _ = acc
    p = P127
    a0, a1 = (x0 - x1) * (x0 + x1) % p, 2 * x0 * x1 % p
    b0, b1 = (y0 - y1) * (y0 + y1) % p, 2 * y0 * y1 % p
    s0, s1 = x0 + y0, x1 + y1
    h0, h1 = a0 + b0, a1 + b1
    g0, g1 = b0 - a0, b1 - a1
    e0, e1 = ((s0 - s1) * (s0 + s1) - h0) % p, (2 * s0 * s1 - h1) % p
    f0, f1 = (2 * (z0 - z1) * (z0 + z1) - g0) % p, (4 * z0 * z1 - g1) % p
    return ((e0 * f0 - e1 * f1) % p, (e0 * f1 + e1 * f0) % p,
            (g0 * h0 - g1 * h1) % p, (g0 * h1 + g1 * h0) % p,
            (g0 * f0 - g1 * f1) % p, (g0 * f1 + g1 * f0) % p,
            e0, e1, h0, h1)


def _add(acc: _Acc, entry: _Entry) -> _Acc:
    """:func:`repro.curve.edwards.ecc_add_core`: T = Ta*Tb,
    A = (Y-X)(Y2-X2), B = (Y+X)(Y2+X2), C = T*2dT2, D = Z*2Z2;
    E = B-A, F = D-C, G = D+C, H = B+A; (E*F, G*H, F*G, E, H)."""
    x0, x1, y0, y1, z0, z1, ta0, ta1, tb0, tb1 = acc
    yp0, yp1, ym0, ym1, w0, w1, d0, d1 = entry
    p = P127
    t0, t1 = (ta0 * tb0 - ta1 * tb1) % p, (ta0 * tb1 + ta1 * tb0) % p
    s0, s1, m0, m1 = y0 + x0, y1 + x1, y0 - x0, y1 - x1
    a0, a1 = (m0 * ym0 - m1 * ym1) % p, (m0 * ym1 + m1 * ym0) % p
    b0, b1 = (s0 * yp0 - s1 * yp1) % p, (s0 * yp1 + s1 * yp0) % p
    c0, c1 = (t0 * d0 - t1 * d1) % p, (t0 * d1 + t1 * d0) % p
    d0, d1 = (z0 * w0 - z1 * w1) % p, (z0 * w1 + z1 * w0) % p
    e0, e1, h0, h1 = b0 - a0, b1 - a1, b0 + a0, b1 + a1
    f0, f1, g0, g1 = d0 - c0, d1 - c1, d0 + c0, d1 + c1
    return ((e0 * f0 - e1 * f1) % p, (e0 * f1 + e1 * f0) % p,
            (g0 * h0 - g1 * h1) % p, (g0 * h1 + g1 * h0) % p,
            (f0 * g0 - f1 * g1) % p, (f0 * g1 + f1 * g0) % p,
            e0, e1, h0, h1)


def _seed(entry: _Entry) -> _Acc:
    """:func:`repro.curve.scalarmult._reseed_with_valid_t`: the entry as
    a working point, (2X, 2Y, 2Z) scaled by 2Z with Ta = 2X, Tb = 2Y."""
    yp0, yp1, ym0, ym1, w0, w1, _, _ = entry
    p = P127
    ta0, ta1, tb0, tb1 = yp0 - ym0, yp1 - ym1, yp0 + ym0, yp1 + ym1
    return ((ta0 * w0 - ta1 * w1) % p, (ta0 * w1 + ta1 * w0) % p,
            (tb0 * w0 - tb1 * w1) % p, (tb0 * w1 + tb1 * w0) % p,
            (w0 - w1) * (w0 + w1) % p, 2 * w0 * w1 % p,
            ta0, ta1, tb0, tb1)


def _entry(acc: _Acc) -> _Entry:
    """:func:`repro.curve.edwards.r1_to_r2`: (Y+X, Y-X, 2Z, 2d*Ta*Tb)."""
    x0, x1, y0, y1, z0, z1, ta0, ta1, tb0, tb1 = acc
    p = P127
    t0, t1 = (ta0 * tb0 - ta1 * tb1) % p, (ta0 * tb1 + ta1 * tb0) % p
    return ((y0 + x0) % p, (y1 + x1) % p, (y0 - x0) % p, (y1 - x1) % p,
            2 * z0 % p, 2 * z1 % p,
            (t0 * _D2_RE - t1 * _D2_IM) % p, (t0 * _D2_IM + t1 * _D2_RE) % p)


def _table(pt: AffinePoint, width: int) -> Tuple[_Entry, ...]:
    """:func:`repro.curve.scalarmult.odd_multiples`: P, 3P, ...,
    (2^(w-1) - 1)P for width ``w``; entry ``j`` serves digits +-(2j + 1)."""
    (x0, x1), (y0, y1) = pt.x, pt.y
    acc = (x0, x1, y0, y1, 1, 0, x0, x1, y0, y1)
    table = [_entry(acc)]
    if width > 2:
        two_p = _entry(_double(acc))
        for _ in range((1 << (width - 2)) - 1):
            acc = _add(acc, two_p)
            table.append(_entry(acc))
    return tuple(table)


@lru_cache(maxsize=1)
def _generator_table() -> Tuple[_Entry, ...]:
    """Odd multiples G, 3G, ..., 127G in R2 (built once per process)."""
    return _table(AffinePoint.generator(), GENERATOR_WNAF_WIDTH)


#: One MSM column: (bit position, signed table entry) for every nonzero
#: wNAF digit of its scalar.
_Column = List[Tuple[int, _Entry]]


def _column(k: int, width: int, table: Sequence[_Entry]) -> _Column:
    """``k``'s width-``width`` wNAF digits resolved against ``table``.

    A negative digit takes the negated entry (:func:`repro.curve.edwards.
    r2_negate`): Y+X and Y-X swap and 2dT changes sign.
    """
    column: _Column = []
    for pos, digit in wnaf_terms(k, width):
        if digit > 0:
            column.append((pos, table[digit >> 1]))
        else:
            yp0, yp1, ym0, ym1, z0, z1, t0, t1 = table[-digit >> 1]
            column.append((pos, (ym0, ym1, yp0, yp1, z0, z1, -t0 % P127, -t1 % P127)))
    return column


def _point_column(k: int, pt: AffinePoint) -> _Column:
    width = wnaf_width(k.bit_length())
    return _column(k, width, _table(pt, width))


def _interleaved_wnaf(columns: Sequence[_Column]) -> Optional[PointR1]:
    """The columns' sum in projective R1; ``None`` if no column has a term.

    Files every column's entries under their bit positions, then walks
    one doubling chain from the top position down, adding the entries
    due at each position.
    """
    due: Dict[int, List[_Entry]] = defaultdict(list)
    for column in columns:
        for pos, entry in column:
            due[pos].append(entry)
    if not due:
        return None
    acc: Optional[_Acc] = None
    for pos in range(max(due), -1, -1):
        if acc is not None:
            acc = _double(acc)
        for entry in due.get(pos, ()):
            acc = _seed(entry) if acc is None else _add(acc, entry)
    x0, x1, y0, y1, z0, z1, ta0, ta1, tb0, tb1 = acc
    p = P127
    return PointR1((x0, x1), (y0, y1), (z0, z1), (ta0 % p, ta1 % p), (tb0 % p, tb1 % p))


def multi_scalar_mul(
    scalars: Sequence[int],
    points: Sequence[AffinePoint],
) -> AffinePoint:
    """Compute sum_i [k_i] P_i with one interleaved wNAF MSM.

    Identity points and scalars that vanish mod N are dropped before
    any table is built.

    Args:
        scalars: any integers (reduced mod N internally).
        points: order-N points, same length as ``scalars``.

    Returns:
        The affine sum; the identity for an empty batch.

    Raises:
        ValueError: on length mismatch.
    """
    if len(scalars) != len(points):
        raise ValueError("scalars and points must have equal length")
    columns = []
    for k, pt in zip(scalars, points):
        k %= SUBGROUP_ORDER_N
        if k and not pt.is_identity():
            columns.append(_point_column(k, pt))
    acc = _interleaved_wnaf(columns)
    if acc is None:
        return AffinePoint.identity()
    zinv = fp2_inv(acc.z)
    return AffinePoint(fp2_mul(acc.x, zinv), fp2_mul(acc.y, zinv), check=False)


_in_subgroup_cached = lru_cache(maxsize=4096)(cofactor_pairings_trivial)


def in_order_n_subgroup(pt: AffinePoint) -> bool:
    """True iff ``pt`` lies in the order-N subgroup (identity included).

    FourQ's full group is Z_N + Z_8 + Z_7 + Z_7, so the subgroup is
    8E ∩ 7E: the check evaluates three reduced Tate pairings against the
    pinned cofactor torsion basis (:mod:`repro.curve.tate`) — exact, and
    about 15x cheaper than an [N]P ladder.  ``pt`` must be on the curve.
    Verdicts are memoized per coordinate pair (membership is a pure
    property of the point), so batch verification pays one test per
    distinct key even across bisection rounds and repeated batches.
    """
    return _in_subgroup_cached(pt.x, pt.y)


def validate_verify_item(public, sig) -> Optional[AffinePoint]:
    """Vet one (public, signature) pair for sound batch verification.

    Returns the reconstructed commitment on success, ``None`` on any
    rejection: malformed types, off-curve public or commitment,
    out-of-range s, or either point outside the order-N subgroup.  The
    subgroup requirement is what makes the random-linear-combination
    soundness argument go through — with cofactor-component points the
    relation can hold mod the small factors with probability far above
    2^-128 (1/7 for an order-7 component).
    """
    try:
        commit = AffinePoint(sig.commit_x, sig.commit_y)
        if not (1 <= sig.s < SUBGROUP_ORDER_N):
            return None
        if not isinstance(public, AffinePoint):
            return None
        if not public.is_identity() and not is_on_curve(public.x, public.y):
            return None
    except (TypeError, ValueError, AttributeError):
        return None
    if not in_order_n_subgroup(public):
        return None
    if not in_order_n_subgroup(commit):
        return None
    return commit


class SchnorrBatch:
    """FourQ-Schnorr signatures prepared once for any number of subset sums.

    ``items`` is a sequence of ``(public, message, signature)`` triples
    (types from :mod:`repro.dsa.fourq_schnorr`).  Construction does
    every per-item step once: it vets the item
    (:func:`validate_verify_item`; a rejected slot is listed in
    :attr:`rejected`, the rest in :attr:`live`), hashes its challenge
    e_i, draws its weight z_i (128 bits, odd) and builds its two wNAF
    columns, [z_i](-R_i) and [z_i e_i](-Q_i), tables included.

    :meth:`sum` then evaluates

        S(I) = [sum_{i in I} z_i s_i] G + sum_{i in I} ([z_i](-R_i) + [z_i e_i](-Q_i))
             = sum_{i in I} z_i D_i,   D_i = [s_i]G - R_i - [e_i]Q_i

    for any subset I of :attr:`live` as one interleaved wNAF MSM; the
    generator column reads the cached width-8 table.  An honest item
    has D_i = O exactly, so a sum that is not the identity proves a bad
    item in I.  The weights are fixed once the batch is built and drawn
    after the items are, so a sum over a subset holding a bad item
    vanishes with probability at most 2^-127, for *each* sum taken
    (``docs/derivation.md``); they default to the OS CSPRNG
    (``secrets.SystemRandom``; pass a seeded ``rng`` only in tests).  :attr:`total` keeps the sum over every
    live item once :func:`batch_verify_schnorr` has computed it.
    """

    def __init__(self, items: Sequence, rng=None):
        from ..dsa.fourq_schnorr import _challenge

        rng = rng or secrets.SystemRandom()
        self.live: List[int] = []
        self.rejected: List[int] = []
        self.total: Optional[PointR1] = None
        #: Per live slot: (weighted s mod N, commitment column, key column).
        self._prepared: Dict[int, Tuple[int, _Column, _Column]] = {}
        for idx, (public, message, sig) in enumerate(items):
            commit = validate_verify_item(public, sig)
            if commit is None:
                self.rejected.append(idx)
                continue
            z = rng.getrandbits(128) | 1
            e = _challenge(commit, public, message)
            self._prepared[idx] = (
                z * sig.s % SUBGROUP_ORDER_N,
                _point_column(z, -commit),
                _point_column(z * e % SUBGROUP_ORDER_N, -public),
            )
            self.live.append(idx)

    def sum(self, indices: Sequence[int]) -> Optional[PointR1]:
        """S(indices) in projective R1 (``None``: no term, the identity)."""
        columns: List[_Column] = []
        s_weighted = 0
        for idx in indices:
            zs, commit_column, key_column = self._prepared[idx]
            s_weighted += zs
            columns += (commit_column, key_column)
        columns.append(_column(
            s_weighted % SUBGROUP_ORDER_N, GENERATOR_WNAF_WIDTH, _generator_table()
        ))
        return _interleaved_wnaf(columns)

    @staticmethod
    def difference(whole: PointR1, part: Optional[PointR1]) -> PointR1:
        """``whole - part``: a sibling's sum from its parent's, one addition."""
        if part is None:
            return whole
        return ecc_add_core(whole, r2_negate(r1_to_r2(part)))

    @staticmethod
    def is_identity(acc: Optional[PointR1]) -> bool:
        """True iff ``acc`` (a :meth:`sum`) is the identity."""
        # Projective identity (0 : 1 : 1): X = 0 and Y = Z.  Exact here,
        # since every input is in the odd-order subgroup, where the only
        # point with x = 0 is the identity (the other, (0, -1), has order 2).
        return acc is None or (acc.x == (0, 0) and acc.y == acc.z)


def batch_verify_schnorr(items, rng=None) -> bool:
    """Batch-verify FourQ-Schnorr signatures with random weights.

    ``items`` is a sequence of ``(public, message, signature)`` triples,
    or a :class:`SchnorrBatch` already built from them.  Uses the
    standard small-exponent randomized batching: with random 128-bit
    weights z_i, checks

        [sum_i z_i s_i] G + sum_i [z_i](-R_i) + sum_i [z_i e_i](-Q_i)  ==  O

    via one interleaved wNAF MSM (:meth:`SchnorrBatch.sum`, kept as the
    batch's :attr:`~SchnorrBatch.total`).  The weights go on the
    negated points (-(x, y) = (-x, y) costs one negation), so the
    commitment columns stay 128 bits long instead of becoming 246-bit
    ``N - z_i``; and the sum is tested for the identity in projective
    coordinates, with no inversion.  Sound except with probability
    ~2^-128 per forged batch, **provided** the weights are
    unpredictable to the signer and every point is in the order-N
    subgroup — so the weights default to the OS CSPRNG
    (``secrets.SystemRandom``) and every public key and commitment is
    membership-checked before batching.  A sequence with any malformed
    or out-of-subgroup item returns False (after every item is vetted);
    a built batch is judged on its :attr:`~SchnorrBatch.live` items,
    its rejects being the caller's to resolve.
    """
    if not isinstance(items, SchnorrBatch):
        items = SchnorrBatch(items, rng)
        if items.rejected:
            return False
    items.total = items.sum(items.live)
    return items.is_identity(items.total)
