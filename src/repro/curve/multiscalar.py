"""Multi-scalar multiplication: sum_i [k_i] P_i for n points.

Batch signature verification — the ITS scenario's actual hot loop when
messages arrive from many vehicles — evaluates sums of scalar
multiples.  The host evaluates every one of them the same way
(:func:`multi_scalar_mul`, :func:`batch_verify_schnorr`): an
**interleaved width-w NAF** MSM.

* Each point gets a small table of odd multiples P, 3P, ...,
  (2^(w-1) - 1)P (:func:`repro.curve.scalarmult.odd_multiples`), its
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

Everything runs on the unified extended-coordinate formulas of
:mod:`repro.curve.edwards`; ``ecc_add_core`` is the a=-1
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
from .params import SUBGROUP_ORDER_N, is_on_curve
from .point import AffinePoint
from .scalarmult import _reseed_with_valid_t, odd_multiples, wnaf_terms
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


@lru_cache(maxsize=1)
def _generator_table() -> Tuple[PointR2, ...]:
    """Odd multiples G, 3G, ..., 127G in R2 (built once per process)."""
    return tuple(odd_multiples(AffinePoint.generator(), 1 << (GENERATOR_WNAF_WIDTH - 2)))


#: One MSM column: the scalar's sparse wNAF terms and its odd-multiple
#: table.
_Column = Tuple[List[Tuple[int, int]], Sequence[PointR2]]


def _point_column(k: int, pt: AffinePoint) -> _Column:
    width = wnaf_width(k.bit_length())
    return wnaf_terms(k, width), odd_multiples(pt, 1 << (width - 2))


def _interleaved_wnaf(columns: Sequence[_Column]) -> Optional[PointR1]:
    """The columns' sum in projective R1; ``None`` if no column has a term.

    Files every column's signed table entries under their bit
    positions, then walks one doubling chain from the top position
    down, adding the entries due at each position.
    """
    ops = RAW_OPS
    due: Dict[int, List[PointR2]] = defaultdict(list)
    for terms, table in columns:
        for pos, digit in terms:
            entry = table[abs(digit) >> 1]
            due[pos].append(entry if digit > 0 else r2_negate(entry, ops))
    if not due:
        return None
    acc: Optional[PointR1] = None
    for pos in range(max(due), -1, -1):
        if acc is not None:
            acc = ecc_double(acc, ops)
        for entry in due.get(pos, ()):
            if acc is None:
                acc = _reseed_with_valid_t(entry, ops)
            else:
                acc = ecc_add_core(acc, entry, ops)
    return acc


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


def batch_verify_schnorr(
    items: Sequence, rng=None
) -> bool:
    """Batch-verify FourQ-Schnorr signatures with random weights.

    ``items`` is a sequence of ``(public, message, signature)`` triples
    (types from :mod:`repro.dsa.fourq_schnorr`).  Uses the standard
    small-exponent randomized batching: with random 128-bit weights
    z_i, checks

        [sum_i z_i s_i] G + sum_i [z_i](-R_i) + sum_i [z_i e_i](-Q_i)  ==  O

    via one interleaved wNAF MSM.  The weights go on the negated points
    (-(x, y) = (-x, y) costs one negation), so the commitment columns
    stay 128 bits long instead of becoming 246-bit ``N - z_i``; the
    generator column reads the cached width-8 table; and the sum is
    tested for the identity in projective coordinates, with no
    inversion.  Sound except with probability
    ~2^-128 per forged batch, **provided** the weights are
    unpredictable to the signer and every point is in the order-N
    subgroup — so the weights default to the OS CSPRNG
    (``secrets.SystemRandom``; pass a seeded ``rng`` only in tests) and
    every public key and commitment is membership-checked before
    batching.  Returns False on any malformed or out-of-subgroup
    input.
    """
    rng = rng or secrets.SystemRandom()
    if not items:
        return True
    from ..dsa.fourq_schnorr import _challenge

    columns = []
    s_weighted = 0
    for public, message, sig in items:
        commit = validate_verify_item(public, sig)
        if commit is None:
            return False
        z = rng.getrandbits(128) | 1
        e = _challenge(commit, public, message)
        s_weighted = (s_weighted + z * sig.s) % SUBGROUP_ORDER_N
        columns.append(_point_column(z, -commit))
        columns.append(_point_column(z * e % SUBGROUP_ORDER_N, -public))
    columns.append((wnaf_terms(s_weighted, GENERATOR_WNAF_WIDTH), _generator_table()))
    acc = _interleaved_wnaf(columns)
    # Projective identity (0 : 1 : 1): X = 0 and Y = Z.  Exact here,
    # since every input is in the odd-order subgroup, where the only
    # point with x = 0 is the identity (the other, (0, -1), has order 2).
    return acc is None or (acc.x == (0, 0) and acc.y == acc.z)
