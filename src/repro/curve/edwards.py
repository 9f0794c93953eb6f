"""Operation-exact extended twisted Edwards formulas for FourQ.

These are the formulas the paper's datapath executes: extended
(homogeneous) coordinates with the point representations used by
FourQlib and by the FPGA/ASIC implementations (paper references
[7], [10]):

* **R1** ``(X, Y, Z, Ta, Tb)`` with ``T = Ta * Tb`` — working point;
* **R2** ``(Y+X, Y-X, 2Z, 2dT)`` — precomputed table entry (the paper's
  step 2 writes ``T[u]`` in exactly these coordinates);
* **R3** ``(Y+X, Y-X, Z, T)`` — intermediate used while building tables.

Every function takes an explicit ``ops`` object implementing the
:class:`Fp2Ops` interface.  With :class:`RawFp2Ops` the formulas compute
actual field values; with the tracer's recording ops
(:mod:`repro.trace`) the *same code path* emits the micro-instruction
sequence — reproducing the paper's methodology of recording the
execution trace of the Python implementation (Section III-C, step 2).

Operation counts (one main-loop iteration, Fig. 2(b) of the paper):

* doubling: 4S + 3M = **7 multiplier ops**, 6 add/sub;
* table-entry conditional negation: **1 add/sub** (the Y+X / Y-X swap is
  free wiring; only 2dT needs a negation);
* mixed addition R1 <- R1 + R2: **8 multiplier ops**, 6 add/sub;

total **15 multiplications + 13 additions/subtractions**, matching the
paper exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, List, TypeVar

from ..field.fp2 import (
    Fp2Raw,
    fp2_add,
    fp2_inv,
    fp2_mul,
    fp2_neg,
    fp2_sqr,
    fp2_sub,
)
from .params import D2

V = TypeVar("V")


class Fp2Ops:
    """Interface for F_{p^2} arithmetic used by the point formulas.

    ``V`` is the value type: raw ``(int, int)`` tuples for math
    evaluation, traced handles for schedule extraction.
    """

    def mul(self, a: V, b: V) -> V:  # pragma: no cover - interface
        """Full multiplication (issued to the pipelined multiplier)."""
        raise NotImplementedError

    def sqr(self, a: V) -> V:  # pragma: no cover - interface
        """Squaring (also issued to the multiplier; S = M in hardware)."""
        raise NotImplementedError

    def add(self, a: V, b: V) -> V:  # pragma: no cover - interface
        """Addition (issued to the adder/subtractor)."""
        raise NotImplementedError

    def sub(self, a: V, b: V) -> V:  # pragma: no cover - interface
        """Subtraction (issued to the adder/subtractor)."""
        raise NotImplementedError

    def neg(self, a: V) -> V:  # pragma: no cover - interface
        """Negation (one adder/subtractor slot: 0 - a)."""
        raise NotImplementedError

    def const(self, value: Fp2Raw, name: str = "const") -> V:  # pragma: no cover
        """Wrap a field constant (e.g. 2d) as a value/operand."""
        raise NotImplementedError

    def select(self, chosen: V, *alternatives: V) -> V:  # pragma: no cover
        """Constant-time mux: value of ``chosen``, which must be among
        ``alternatives``.  Free of functional units, but in a traced/
        scheduled context consumers wait for every alternative."""
        raise NotImplementedError


class RawFp2Ops(Fp2Ops):
    """Direct evaluation on raw F_{p^2} tuples (the mathematical layer).

    The arithmetic methods are the :mod:`repro.field.fp2` functions
    themselves, bound without a wrapper frame.
    """

    mul = staticmethod(fp2_mul)
    sqr = staticmethod(fp2_sqr)
    add = staticmethod(fp2_add)
    sub = staticmethod(fp2_sub)
    neg = staticmethod(fp2_neg)

    def const(self, value: Fp2Raw, name: str = "const") -> Fp2Raw:
        return value

    def conj(self, a: Fp2Raw) -> Fp2Raw:
        """Conjugation (in hardware: one add/sub slot negating the
        imaginary half)."""
        from ..field.fp2 import fp2_conj

        return fp2_conj(a)

    def select(self, chosen: Fp2Raw, *alternatives: Fp2Raw) -> Fp2Raw:
        """Mux on the raw layer: just the chosen value."""
        return chosen

    def inv(self, a: Fp2Raw) -> Fp2Raw:
        """Direct inverse — only available on the raw layer (the traced
        layer must use :func:`fp2_inverse_chain`)."""
        return fp2_inv(a)


#: The default evaluation ops.
RAW_OPS = RawFp2Ops()


@dataclass
class PointR1(Generic[V]):
    """Working point (X : Y : Z) with split extended coordinate T = Ta*Tb."""

    x: V
    y: V
    z: V
    ta: V
    tb: V


@dataclass
class PointR2(Generic[V]):
    """Precomputed point in coordinates (Y+X, Y-X, 2Z, 2dT)."""

    yx_plus: V
    yx_minus: V
    z2: V
    t2d: V


@dataclass
class PointR3(Generic[V]):
    """Intermediate (Y+X, Y-X, Z, T) used during table construction."""

    yx_plus: V
    yx_minus: V
    z: V
    t: V


def point_r1_from_affine(x: Fp2Raw, y: Fp2Raw, ops: Fp2Ops = RAW_OPS) -> PointR1:
    """Lift an affine point into R1 with Z = 1, Ta = x, Tb = y."""
    px = ops.const(x, "Px")
    py = ops.const(y, "Py")
    one = ops.const((1, 0), "one")
    return PointR1(px, py, one, px, py)


def ecc_double(p: PointR1, ops: Fp2Ops = RAW_OPS) -> PointR1:
    """Point doubling, R1 <- [2] R1 (4S + 3M + 6 add/sub).

    Hisil et al. "dbl-2008-hwcd" adapted to a = -1, in the exact
    operation order used by FourQlib's ``eccdouble``:

        t1 = X^2; t2 = Y^2; X' = X+Y; Tb = t1+t2; t1 = t2-t1;
        Ta = X'^2; t2 = Z^2; Ta = Ta-Tb; t2 = 2 t2; t2 = t2-t1;
        Y3 = t1*Tb; X3 = Ta*t2; Z3 = t1*t2.
    """
    t1 = ops.sqr(p.x)                 # X1^2
    t2 = ops.sqr(p.y)                 # Y1^2
    xy = ops.add(p.x, p.y)            # X1+Y1
    tb = ops.add(t1, t2)              # Tb_final = X1^2+Y1^2  (= H)
    t1 = ops.sub(t2, t1)              # t1 = Y1^2-X1^2        (= G)
    ta = ops.sqr(xy)                  # (X1+Y1)^2
    t2 = ops.sqr(p.z)                 # Z1^2
    ta = ops.sub(ta, tb)              # Ta_final = 2 X1 Y1    (= E)
    t2 = ops.add(t2, t2)              # 2 Z1^2
    t2 = ops.sub(t2, t1)              # F = 2Z1^2 - G
    y3 = ops.mul(t1, tb)              # Y3 = G*H
    x3 = ops.mul(ta, t2)              # X3 = E*F
    z3 = ops.mul(t1, t2)              # Z3 = G*F
    return PointR1(x3, y3, z3, ta, tb)


def ecc_add_core(p: PointR1, q: PointR2, ops: Fp2Ops = RAW_OPS) -> PointR1:
    """Mixed addition R1 <- R1 + R2 (8M + 6 add/sub).

    ``q`` is a precomputed point in (Y+X, Y-X, 2Z, 2dT) coordinates.
    Formula family "madd-2008-hwcd-3" for a = -1:

        T1 = Ta*Tb; A = (Y1-X1)*(Y2-X2)'; B = (Y1+X1)*(Y2+X2)';
        C = T1*(2dT2); D = Z1*(2Z2);
        E = B-A; F = D-C; G = D+C; H = B+A;
        X3 = E*F; Y3 = G*H; Z3 = F*G;  Ta3 = E; Tb3 = H.
    """
    t1 = ops.mul(p.ta, p.tb)          # T1 = Ta*Tb
    s_plus = ops.add(p.y, p.x)        # Y1+X1
    s_minus = ops.sub(p.y, p.x)       # Y1-X1
    a = ops.mul(s_minus, q.yx_minus)  # A
    b = ops.mul(s_plus, q.yx_plus)    # B
    c = ops.mul(t1, q.t2d)            # C = 2dT1T2
    d = ops.mul(p.z, q.z2)            # D = 2Z1Z2
    e = ops.sub(b, a)                 # E (= Ta3)
    f = ops.sub(d, c)                 # F
    g = ops.add(d, c)                 # G
    h = ops.add(b, a)                 # H (= Tb3)
    x3 = ops.mul(e, f)
    y3 = ops.mul(g, h)
    z3 = ops.mul(f, g)
    return PointR1(x3, y3, z3, e, h)


def r1_to_r2(p: PointR1, ops: Fp2Ops = RAW_OPS) -> PointR2:
    """Convert R1 -> R2 table coordinates (2M + 3 add/sub).

    (Y+X, Y-X, 2Z, 2dT) with T = Ta*Tb and the curve constant 2d.
    """
    t = ops.mul(p.ta, p.tb)
    t2d = ops.mul(t, ops.const(D2, "2d"))
    return PointR2(
        ops.add(p.y, p.x),
        ops.sub(p.y, p.x),
        ops.add(p.z, p.z),
        t2d,
    )


def r1_to_r3(p: PointR1, ops: Fp2Ops = RAW_OPS) -> PointR3:
    """Convert R1 -> R3 (1M + 2 add/sub)."""
    return PointR3(
        ops.add(p.y, p.x),
        ops.sub(p.y, p.x),
        p.z,
        ops.mul(p.ta, p.tb),
    )


def ecc_add_r3(p: PointR3, q: PointR1, ops: Fp2Ops = RAW_OPS) -> PointR1:
    """Addition R1 <- R3 + R1 (used while building the 8-entry table).

    Same core as :func:`ecc_add_core` but ``p`` supplies plain (Z, T)
    so the doubled coordinates are formed on the fly (8M + 8 add/sub).
    """
    t1 = ops.mul(q.ta, q.tb)          # T of the R1 operand
    s_plus = ops.add(q.y, q.x)
    s_minus = ops.sub(q.y, q.x)
    a = ops.mul(s_minus, p.yx_minus)
    b = ops.mul(s_plus, p.yx_plus)
    t2d = ops.mul(p.t, ops.const(D2, "2d"))
    c = ops.mul(t1, t2d)
    z2 = ops.add(p.z, p.z)
    d = ops.mul(q.z, z2)
    e = ops.sub(b, a)
    f = ops.sub(d, c)
    g = ops.add(d, c)
    h = ops.add(b, a)
    return PointR1(ops.mul(e, f), ops.mul(g, h), ops.mul(f, g), e, h)


def r2_negate(q: PointR2, ops: Fp2Ops = RAW_OPS) -> PointR2:
    """Negate a table entry (1 add/sub).

    Edwards negation maps (Y+X, Y-X, 2Z, 2dT) to (Y-X, Y+X, 2Z, -2dT):
    the first two coordinates swap (free in hardware — just routing) and
    only 2dT pays a real negation on the adder/subtractor.
    """
    return PointR2(q.yx_minus, q.yx_plus, q.z2, ops.neg(q.t2d))


def r2_select(
    table: List[PointR2], index: int, ops: Fp2Ops = RAW_OPS
) -> PointR2:
    """Table lookup T[v_i]: an 8-way mux per coordinate.

    Free of field operations, but routed through ``ops.select`` so a
    traced program depends on *every* table entry — the lookup timing
    (and therefore the generated schedule) is independent of the secret
    digit, exactly like the hardware's constant-time bank read.
    """
    chosen = table[index]
    return PointR2(
        ops.select(chosen.yx_plus, *[t.yx_plus for t in table]),
        ops.select(chosen.yx_minus, *[t.yx_minus for t in table]),
        ops.select(chosen.z2, *[t.z2 for t in table]),
        ops.select(chosen.t2d, *[t.t2d for t in table]),
    )


def fp2_inverse_chain(a: V, ops: Fp2Ops, conj: V = None) -> V:
    """Inversion via a multiplication/squaring addition chain.

    The datapath has no divider, so the single inversion at the end of a
    scalar multiplication is computed as

        a^-1 = conj(a) * n^(p-2),      n = a * conj(a)  (the norm, in F_p)

    where ``n^(p-2)`` uses the chain for 2^127 - 3: a ``2^k - 1``
    exponent ladder (127 squarings and about 12 multiplications).  The
    caller must supply ``conj`` (conjugation is a free sign flip in the
    datapath, delivered by the add/sub unit as a negation of the
    imaginary half — we charge it as one add/sub via ``ops.conj`` when
    the ops object provides it, else the caller precomputes it).
    """
    conj_fn = getattr(ops, "conj", None)
    if conj is None:
        if conj_fn is None:
            raise ValueError("ops has no conj; pass the conjugate explicitly")
        conj = conj_fn(a)
    n = ops.mul(a, conj)              # norm: real element of F_p in F_{p^2}

    def pow_2k_minus_1(x: V, k: int) -> V:
        """x^(2^k - 1) by the recursive doubling ladder."""
        if k == 1:
            return x
        half = k // 2
        lo = pow_2k_minus_1(x, half)
        acc = lo
        for _ in range(half):
            acc = ops.sqr(acc)
        acc = ops.mul(acc, lo)        # x^(2^(2*half) - 1)
        if k % 2:
            acc = ops.sqr(acc)
            acc = ops.mul(acc, x)
        return acc

    # n^(2^127 - 3) = (n^(2^125 - 1))^(2^2) * n
    t = pow_2k_minus_1(n, 125)
    t = ops.sqr(t)
    t = ops.sqr(t)
    ninv = ops.mul(t, n)
    return ops.mul(conj, ninv)


def ecc_normalize(p: PointR1, ops: Fp2Ops = RAW_OPS) -> "tuple":
    """Map an R1 point to affine (x, y) = (X/Z, Y/Z) with one inversion.

    Uses the traceable inversion chain, then two multiplications.
    Returns an ``(x, y)`` pair of ops-values.
    """
    conj_fn = getattr(ops, "conj", None)
    if conj_fn is not None:
        zinv = fp2_inverse_chain(p.z, ops)
    else:
        # Raw layer: conjugation computed directly.
        zc = fp2_conj_raw(p.z)
        zinv = fp2_inverse_chain(p.z, ops, conj=zc)
    return (ops.mul(p.x, zinv), ops.mul(p.y, zinv))


def fp2_conj_raw(a: Fp2Raw) -> Fp2Raw:
    """Conjugation on the raw layer (re-export to avoid import cycles)."""
    from ..field.fp2 import fp2_conj

    return fp2_conj(a)
