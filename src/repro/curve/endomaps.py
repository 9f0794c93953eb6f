"""Inversion-free (projective) evaluation of the derived endomorphisms.

The derivation in :mod:`repro.curve.derive` (committed and verified at
load by :mod:`repro.curve.committed`) produces phi and psi as
compositions of affine rational maps, each evaluated with field
inversions.  Hardware has no divider, so this module *compiles* the
same compositions into a staged, fraction-tracking evaluator that uses
only F_{p^2} multiplications and additions — the form the paper's
datapath executes (and the analogue of the projective formulas
published with FourQ, except ours are derived, not transcribed).

Every coordinate is carried as a fraction (numerator, denominator); a
stage consumes and produces fractions, so no inversion ever happens.
The F_{p^4} kernel of the degree-5 isogeny is collapsed into F_{p^2}
polynomial coefficients once at compile time (the per-kernel-point Velu
terms are Galois-conjugate, so their symmetric combinations lie in
F_{p^2}); evaluation never touches F_{p^4}.

Final output is an extended R1 point: for x = xn/xd, y = yn/yd,

    (X : Y : Z : Ta, Tb) = (xn*yd : yn*xd : xd*yd : Ta = xn... )

wait — with X = xn*yd, Y = yn*xd, Z = xd*yd the extended coordinate is
T = X*Y/Z = xn*yn, so Ta = xn and Tb = yn.  (This comment is
load-bearing: tests assert the invariant Ta*Tb*Z == X*Y.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..field.fp2 import Fp2Raw, fp2_mul
from ..field.tower import f4, f4_add, f4_in_base, f4_mul
from .derive import DerivedEndomorphisms
from .edwards import Fp2Ops, PointR1, RAW_OPS
from .wmodel import WeierstrassModel


@dataclass(frozen=True)
class TwoIsogenyStage:
    """One 2-isogeny step: X' = (x^2 - x0 x + v) / (x - x0), Y' = y * dX'/dx.

    With x = xn/xd:
        s   = xn - x0*xd                  (the (x - x0) numerator)
        xn' = xn*(xn - x0*xd) + v*xd^2  = xn*s + v*xd^2
        xd' = xd*s
        yn' = yn*(s^2 - v*xd^2)
        yd' = yd*s^2
    Cost: 7 multiplications + 2 additions.
    """

    x0: Fp2Raw
    v: Fp2Raw


@dataclass(frozen=True)
class FiveIsogenyStage:
    """The degree-5 Velu step with Galois-collapsed F_{p^2} coefficients.

    Affine maps (h(x) = x^2 + h1 x + h0 is the kernel polynomial):

        X'(x) = x + (sv*x + tv)/h(x) + (su*x^2 + uu*x + vu)/h(x)^2
        Y'    = y * (1 - (sv'' ...)/h^2 - (...)/h^3)   [dX'/dx]

    Both are evaluated over the common denominators h^2 and h^3.
    The numerator polynomials (degree <= 5) are precomputed at compile
    time as plain coefficient lists.
    """

    h: Tuple[Fp2Raw, Fp2Raw]          # (h0, h1); h(x) = x^2 + h1 x + h0
    num_x: Tuple[Fp2Raw, ...]          # numerator of X' over h^2, degree 5
    num_dx: Tuple[Fp2Raw, ...]         # numerator of dX'/dx over h^3, degree 6


@dataclass(frozen=True)
class ScaleStage:
    """Isomorphism (x, y) -> (u2 * x, u3 * y): two numerator scalings."""

    u2: Fp2Raw
    u3: Fp2Raw


@dataclass(frozen=True)
class ConjStage:
    """Coordinate conjugation of all four fraction components.

    In the datapath this is a negation of the imaginary halves — four
    add/sub-unit slots (one per fraction component).
    """


@dataclass(frozen=True)
class CompiledEndo:
    """A full endomorphism as a pre-map, stage list, and post-map."""

    name: str
    stages: Tuple[object, ...]
    model: WeierstrassModel
    eigenvalue: int


Frac = Tuple[object, object]  # (numerator, denominator) as ops-values


def _poly_coeffs_from_velu_pair(iso5) -> FiveIsogenyStage:
    """Collapse the F_{p^4} Velu terms of a 5-isogeny into F_{p^2} polys.

    For kernel x-coords x1, x2 (a Galois pair) with per-point constants
    (v_i, u_i):

        sum v_i/(x - x_i)           = (Sv x + Tv) / h
        sum u_i/(x - x_i)^2         = (Su x^2 + Uu x + Vu) / h^2
        sum v_i/(x - x_i)^2         = (Sv x^2 + Wv x + Zv) / h^2
        sum 2u_i/(x - x_i)^3        = (...)                / h^3

    where every combined coefficient is symmetric under the Galois swap
    and therefore lies in F_{p^2} (asserted).  The X' numerator over
    h^2 and the dX'/dx numerator over h^3 are then assembled by
    polynomial arithmetic.
    """
    (x1, v1, u1), (x2, v2, u2) = iso5.terms

    def lin(xq):  # (x - xq) as an F_{p^4} poly [(-xq), 1]
        from ..field.tower import f4_neg, F4_ONE

        return [f4_neg(xq), F4_ONE]

    l1, l2 = lin(x1), lin(x2)

    def pmul4(f, g):
        out = [((0, 0), (0, 0))] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = f4_add(out[i + j], f4_mul(a, b))
        return out

    def pscale4(f, c):
        return [f4_mul(a, c) for a in f]

    def padd4(f, g):
        n = max(len(f), len(g))
        zero = ((0, 0), (0, 0))
        return [
            f4_add(f[i] if i < len(f) else zero, g[i] if i < len(g) else zero)
            for i in range(n)
        ]

    h4 = pmul4(l1, l2)                      # h(x), degree 2
    h2_4 = pmul4(h4, h4)                    # h^2, degree 4
    l1sq, l2sq = pmul4(l1, l1), pmul4(l2, l2)
    l1cu, l2cu = pmul4(l1sq, l1), pmul4(l2sq, l2)

    # X' = x + [v1 l2 + v2 l1]/h + [u1 l2^2 + u2 l1^2]/h^2
    #    = (x h^2 + (v1 l2 + v2 l1) h + u1 l2^2 + u2 l1^2) / h^2
    x_poly4 = [((0, 0), (0, 0)), (((1, 0), (0, 0)))]
    term_a = pmul4(x_poly4, h2_4)
    term_b = pmul4(padd4(pscale4(l2, v1), pscale4(l1, v2)), h4)
    term_c = padd4(pscale4(l2sq, u1), pscale4(l1sq, u2))
    num_x4 = padd4(padd4(term_a, term_b), term_c)

    # dX'/dx = 1 - [v1 l2^2 + v2 l1^2]/h^2 - [2u1 l2^3 + 2u2 l1^3]/h^3
    #        = (h^3 - (v1 l2^2 + v2 l1^2) h - 2(u1 l2^3 + u2 l1^3)) / h^3
    h3_4 = pmul4(h2_4, h4)
    two = f4((2, 0))
    term_d = pmul4(padd4(pscale4(l2sq, v1), pscale4(l1sq, v2)), h4)
    term_e = padd4(
        pscale4(l1cu, f4_mul(two, u2)), pscale4(l2cu, f4_mul(two, u1))
    )
    from ..field.tower import f4_sub as _f4sub

    num_dx4 = h3_4
    n = max(len(num_dx4), len(term_d), len(term_e))
    zero4 = ((0, 0), (0, 0))

    def at(f, i):
        return f[i] if i < len(f) else zero4

    num_dx4 = [
        _f4sub(_f4sub(at(h3_4, i), at(term_d, i)), at(term_e, i))
        for i in range(n)
    ]

    def collapse(poly4) -> Tuple[Fp2Raw, ...]:
        out = []
        for c in poly4:
            if not f4_in_base(c):
                raise AssertionError("Velu coefficient escaped F_{p^2}")
            out.append(c[0])
        return tuple(out)

    h2 = collapse(h4)
    return FiveIsogenyStage(
        h=(h2[0], h2[1]),
        num_x=collapse(num_x4),
        num_dx=collapse(num_dx4),
    )


def compile_endomorphisms(
    derived: DerivedEndomorphisms,
) -> Tuple[CompiledEndo, CompiledEndo]:
    """Compile (phi, psi) into inversion-free stage pipelines.

    The process-wide compiled pair is
    ``repro.curve.committed.curve_constants().compiled``.
    """
    model = derived.model
    tau = TwoIsogenyStage(x0=derived.tau.x0, v=derived.tau.v)
    tau_dual = TwoIsogenyStage(x0=derived.tau_dual.x0, v=derived.tau_dual.v)
    delta = TwoIsogenyStage(x0=derived.delta.x0, v=derived.delta.v)
    velu5 = _poly_coeffs_from_velu_pair(derived.velu5)

    psi = CompiledEndo(
        name="psi",
        stages=(
            tau,
            delta,
            ScaleStage(
                u2=fp2_mul(derived.u_delta, derived.u_delta),
                u3=fp2_mul(
                    fp2_mul(derived.u_delta, derived.u_delta), derived.u_delta
                ),
            ),
            ConjStage(),
            tau_dual,
            ScaleStage(
                u2=fp2_mul(derived.u_tau_dual, derived.u_tau_dual),
                u3=fp2_mul(
                    fp2_mul(derived.u_tau_dual, derived.u_tau_dual),
                    derived.u_tau_dual,
                ),
            ),
        ),
        model=model,
        eigenvalue=derived.lambda_psi,
    )
    phi = CompiledEndo(
        name="phi",
        stages=(
            tau,
            velu5,
            ScaleStage(
                u2=fp2_mul(derived.u_velu5, derived.u_velu5),
                u3=fp2_mul(
                    fp2_mul(derived.u_velu5, derived.u_velu5), derived.u_velu5
                ),
            ),
            ConjStage(),
            tau_dual,
            ScaleStage(
                u2=fp2_mul(derived.u_tau_dual, derived.u_tau_dual),
                u3=fp2_mul(
                    fp2_mul(derived.u_tau_dual, derived.u_tau_dual),
                    derived.u_tau_dual,
                ),
            ),
        ),
        model=model,
        eigenvalue=derived.lambda_phi,
    )
    return phi, psi


# ---------------------------------------------------------------------
# Staged, ops-parameterized evaluation
# ---------------------------------------------------------------------


def _eval_two_isogeny(
    stage: TwoIsogenyStage, fx: Frac, fy: Frac, ops: Fp2Ops
) -> Tuple[Frac, Frac]:
    xn, xd = fx
    yn, yd = fy
    x0 = ops.const(stage.x0, "iso2.x0")
    v = ops.const(stage.v, "iso2.v")
    s = ops.sub(xn, ops.mul(x0, xd))
    xd2 = ops.sqr(xd)
    vxd2 = ops.mul(v, xd2)
    xn_new = ops.add(ops.mul(xn, s), vxd2)
    xd_new = ops.mul(xd, s)
    s2 = ops.sqr(s)
    yn_new = ops.mul(yn, ops.sub(s2, vxd2))
    yd_new = ops.mul(yd, s2)
    return (xn_new, xd_new), (yn_new, yd_new)


def _eval_poly_homogeneous(
    coeffs: Sequence[Fp2Raw], xn, xd, ops: Fp2Ops, name: str
):
    """Evaluate sum coeffs[i] * xn^i * xd^(deg-i) via Horner in xn.

    N_h(xn, xd) = xd^deg * N(xn/xd).  The ascending powers of xd are
    built incrementally inside the Horner loop (one extra multiplication
    per step), keeping the whole evaluation inversion-free.
    """
    deg = len(coeffs) - 1
    acc = ops.const(coeffs[deg], f"{name}[{deg}]")
    xd_pow = None
    for i in range(deg - 1, -1, -1):
        acc = ops.mul(acc, xn)
        xd_pow = xd if xd_pow is None else ops.mul(xd_pow, xd)
        term = ops.mul(ops.const(coeffs[i], f"{name}[{i}]"), xd_pow)
        acc = ops.add(acc, term)
    return acc


def _eval_five_isogeny(
    stage: FiveIsogenyStage, fx: Frac, fy: Frac, ops: Fp2Ops
) -> Tuple[Frac, Frac]:
    xn, xd = fx
    yn, yd = fy
    # h homogenized: H = xn^2 + h1 xn xd + h0 xd^2
    h1 = ops.const(stage.h[1], "iso5.h1")
    h0 = ops.const(stage.h[0], "iso5.h0")
    xd2 = ops.sqr(xd)
    hh = ops.add(
        ops.sqr(xn), ops.add(ops.mul(h1, ops.mul(xn, xd)), ops.mul(h0, xd2))
    )
    hh2 = ops.sqr(hh)
    hh3 = ops.mul(hh2, hh)
    # X' = num_x(xn, xd) / (xd * H^2)   [num_x has degree 5: one extra xd]
    nx = _eval_poly_homogeneous(stage.num_x, xn, xd, ops, "iso5.nx")
    xd_new = ops.mul(xd, hh2)
    # dX'/dx = num_dx(xn, xd) / (xd^6?); num_dx degree 6 over H^3:
    ndx = _eval_poly_homogeneous(stage.num_dx, xn, xd, ops, "iso5.ndx")
    yn_new = ops.mul(yn, ndx)
    yd_new = ops.mul(yd, hh3)
    return (nx, xd_new), (yn_new, yd_new)


def _eval_scale(stage: ScaleStage, fx: Frac, fy: Frac, ops: Fp2Ops):
    xn, xd = fx
    yn, yd = fy
    return (
        (ops.mul(ops.const(stage.u2, "iso.u2"), xn), xd),
        (ops.mul(ops.const(stage.u3, "iso.u3"), yn), yd),
    )


def _eval_conj(fx: Frac, fy: Frac, ops: Fp2Ops):
    conj = getattr(ops, "conj", None)
    if conj is None:
        raise ValueError("ops must provide conj for endomorphism evaluation")
    return (
        (conj(fx[0]), conj(fx[1])),
        (conj(fy[0]), conj(fy[1])),
    )


def apply_compiled_endo_frac(
    endo: CompiledEndo, fx: Frac, fy: Frac, ops: Fp2Ops = None
) -> Tuple[Frac, Frac]:
    """Evaluate a compiled endomorphism on fractional Edwards input.

    ``fx = (xn, xd)`` and ``fy = (yn, yd)`` are the Edwards coordinates
    as fractions; the result is again a pair of Edwards fractions, so
    compositions like psi(phi(P)) chain without any inversion.
    """
    ops = ops or RAW_OPS
    model = endo.model
    xn, xd = fx
    yn, yd = fy

    # Edwards -> Weierstrass as fractions.
    a_m = ops.const(model.a_mont, "A_mont")
    b3 = ops.const(fp2_mul((3, 0), model.b_mont), "3B")
    three = ops.const((3, 0), "three")
    b_m = ops.const(model.b_mont, "B_mont")
    un = ops.add(yd, yn)                      # (1 + y) numerator over yd
    ud = ops.sub(yd, yn)                      # (1 - y) numerator over yd
    # wx = (3u + A)/(3B), u = un/ud: wxn = 3 un + A ud, wxd = 3B ud.
    wxn = ops.add(ops.mul(three, un), ops.mul(a_m, ud))
    wxd = ops.mul(b3, ud)
    # wy = u/(x B) = (un * xd) / (B ud xn).
    wyn = ops.mul(un, xd)
    wyd = ops.mul(b_m, ops.mul(ud, xn))

    gx: Frac = (wxn, wxd)
    gy: Frac = (wyn, wyd)
    for stage in endo.stages:
        if isinstance(stage, TwoIsogenyStage):
            gx, gy = _eval_two_isogeny(stage, gx, gy, ops)
        elif isinstance(stage, FiveIsogenyStage):
            gx, gy = _eval_five_isogeny(stage, gx, gy, ops)
        elif isinstance(stage, ScaleStage):
            gx, gy = _eval_scale(stage, gx, gy, ops)
        elif isinstance(stage, ConjStage):
            gx, gy = _eval_conj(gx, gy, ops)
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown stage {stage!r}")

    # Weierstrass -> Edwards as fractions:
    # u = (3B wxn - A wxd) / (3 wxd);  v = B wyn / wyd
    # x_out = u/v;  y_out = (u - 1)/(u + 1)
    t = ops.sub(ops.mul(b3, gx[0]), ops.mul(a_m, gx[1]))  # u numerator
    u_den = ops.mul(three, gx[1])
    x_out_n = ops.mul(t, gy[1])
    x_out_d = ops.mul(u_den, ops.mul(b_m, gy[0]))
    y_out_n = ops.sub(t, u_den)
    y_out_d = ops.add(t, u_den)
    return (x_out_n, x_out_d), (y_out_n, y_out_d)


def frac_to_r1(fx: Frac, fy: Frac, ops: Fp2Ops = None) -> PointR1:
    """Fractions -> extended R1 (3 multiplications).

    X = xn yd, Y = yn xd, Z = xd yd; T = XY/Z = xn yn so Ta = xn,
    Tb = yn come for free.
    """
    ops = ops or RAW_OPS
    big_x = ops.mul(fx[0], fy[1])
    big_y = ops.mul(fy[0], fx[1])
    big_z = ops.mul(fx[1], fy[1])
    return PointR1(big_x, big_y, big_z, fx[0], fy[0])


def apply_compiled_endo(endo: CompiledEndo, x, y, ops: Fp2Ops = None) -> PointR1:
    """Evaluate a compiled endomorphism on affine input (x, y) -> R1.

    ``x, y`` are ops-values (raw tuples for math evaluation, traced
    handles for schedule extraction).  The total cost is pure
    multiplications/additions (about 45 for psi, about 78 for phi) with
    no inversion anywhere.
    """
    ops = ops or RAW_OPS
    one = ops.const((1, 0), "one")
    fx, fy = apply_compiled_endo_frac(endo, (x, one), (y, one), ops)
    return frac_to_r1(fx, fy, ops)
