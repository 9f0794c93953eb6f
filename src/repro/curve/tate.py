"""Exact order-N subgroup membership by three small reduced Tate pairings.

FourQ's group is ``E(F_{p^2}) = Z_N + Z_8 + Z_7 + Z_7`` (cofactor 392),
so the order-N subgroup is ``G_N = 8E ∩ 7E``.  For ``m | p^2 - 1`` the
reduced Tate pairing ``t_m : E[m] x E/mE -> mu_m`` is non-degenerate, and
``E[8] = <T8>``, ``E[7] = <T7, T7'>``; hence (D. Koshelev, "Subgroup
membership testing on elliptic curves via the Tate pairing", J. Cryptogr.
Eng. 2023)

    P in G_N   <=>   t_8(T8, P) = t_7(T7, P) = t_7(T7', P) = 1.

Each pairing is a normalized Miller function ``f_{m,T}`` (divisor
``m(T) - m(O)``, built from lines and verticals on the short Weierstrass
model of :mod:`repro.curve.wmodel`) evaluated at P, then raised to
``(p^2 - 1)/m``:

* ``m = 7``: 7 divides ``p - 1`` but not ``p + 1``, so
  ``f^((p^2-1)/7) = N(f)^((p-1)/7)`` — one F_p exponentiation of the norm;
* ``m = 8``: ``p + 1 = 2^127``, so ``f^((p^2-1)/8) = (conj(f)/f)^(2^124)``,
  124 squarings in the norm-1 torus, where squaring maps the real part
  ``a -> 2a^2 - 1`` and an element is 1 exactly when its real part is.

The line coefficients are computed once, from the torsion points pinned
in :mod:`repro.curve.params`; an evaluation costs one F_{p^2} inversion
(the model map), a few dozen multiplications and two F_p
exponentiations, against a 246-bit
``[N]P`` ladder.  The derivation is in ``docs/derivation.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Tuple

from ..field.fp import P127
from ..field.fp2 import (
    ONE,
    ZERO,
    Fp2Raw,
    fp2_add,
    fp2_conj,
    fp2_inv,
    fp2_mul,
    fp2_neg,
    fp2_norm,
    fp2_sqr,
    fp2_sub,
)
from .params import T7_X, T7_Y, T7B_X, T7B_Y, T8_X, T8_Y
from .point import AffinePoint
from .wmodel import WeierstrassModel, WPoint


def _w_step(
    a: Fp2Raw, r: WPoint, s: WPoint
) -> Tuple[Optional[WPoint], Tuple]:
    """``R + S`` on ``y^2 = x^3 + ax + b`` and the Miller line through them.

    The line is ``("l", lam, nu)`` for ``y - lam x - nu`` or ``("v", c)``
    for the vertical ``x - c`` when ``R = -S`` (the sum is then ``None``,
    the point at infinity).
    """
    (x1, y1), (x2, y2) = r, s
    if x1 == x2:
        if y1 == fp2_neg(y2):
            return None, ("v", x1)
        lam = fp2_mul(
            fp2_add(fp2_mul((3, 0), fp2_sqr(x1)), a), fp2_inv(fp2_add(y1, y1))
        )
    else:
        lam = fp2_mul(fp2_sub(y2, y1), fp2_inv(fp2_sub(x2, x1)))
    x3 = fp2_sub(fp2_sub(fp2_sqr(lam), x1), x2)
    y3 = fp2_sub(fp2_mul(lam, fp2_sub(x1, x3)), y1)
    return (x3, y3), ("l", lam, fp2_sub(y1, fp2_mul(lam, x1)))


@dataclass(frozen=True)
class MillerFunction:
    """``f_{m,T}`` as a product of lines and verticals with exponents.

    Lines ``y - lam x - nu`` and verticals ``x - c`` are normalized at O
    (leading coefficient 1 in the uniformizer x/y), so their product is
    the normalized Miller function and may be evaluated at P directly.
    """

    lines: Tuple[Tuple[Fp2Raw, Fp2Raw, int], ...]
    verticals: Tuple[Tuple[Fp2Raw, int], ...]

    @classmethod
    def build(cls, model: WeierstrassModel, t: WPoint, m: int) -> "MillerFunction":
        """Miller's double-and-add for ``m`` from ``T``; ``[m]T`` must be O.

        ``f_{i+j} = f_i f_j l_{iT,jT} / v_{(i+j)T}``; equal verticals are
        merged, so cancelling ones drop out.
        """
        exps: Dict[Tuple, int] = {}

        def step(r: Optional[WPoint], s: WPoint) -> Optional[WPoint]:
            if r is None:
                raise ValueError(f"T has order below {m}")
            out, line = _w_step(model.a, r, s)
            exps[line] = exps.get(line, 0) + 1
            if out is not None:
                vert = ("v", out[0])
                exps[vert] = exps.get(vert, 0) - 1
            return out

        r: Optional[WPoint] = t
        for bit in bin(m)[3:]:
            exps = {key: 2 * e for key, e in exps.items()}
            r = step(r, r)
            if bit == "1":
                r = step(r, t)
        if r is not None:
            raise ValueError(f"[{m}]T is not the identity")
        return cls(
            lines=tuple((k[1], k[2], e) for k, e in exps.items() if k[0] == "l"),
            verticals=tuple((k[1], e) for k, e in exps.items() if k[0] == "v" and e),
        )

    def evaluate(self, x: Fp2Raw, y: Fp2Raw) -> Optional[Tuple[Fp2Raw, Fp2Raw]]:
        """``(num, den)`` with ``f(P) = num / den``, or ``None`` when a
        line or vertical vanishes at P (then P is a nonzero multiple of T).
        """
        num = den = ONE
        for lam, nu, e in self.lines:
            val = fp2_sub(y, fp2_add(fp2_mul(lam, x), nu))
            if val == ZERO:
                return None
            for _ in range(e):
                num = fp2_mul(num, val)
        for c, e in self.verticals:
            val = fp2_sub(x, c)
            if val == ZERO:
                return None
            if e > 0:
                for _ in range(e):
                    num = fp2_mul(num, val)
            else:
                for _ in range(-e):
                    den = fp2_mul(den, val)
        return num, den


_EXP_7 = (P127 - 1) // 7


def _t7_trivial(nd: Tuple[Fp2Raw, Fp2Raw]) -> bool:
    """``t_7 = N(num/den)^((p-1)/7) = (N(num) N(den)^6)^((p-1)/7) == 1``."""
    num, den = nd
    return pow(fp2_norm(num) * pow(fp2_norm(den), 6, P127), _EXP_7, P127) == 1


def _t8_trivial(nd: Tuple[Fp2Raw, Fp2Raw]) -> bool:
    """``t_8 = (conj(h)/h)^(2^124) == 1`` with ``h = num * conj(den)``.

    ``conj(h)/h = conj(h)^2 / N(h)`` has norm 1; only its real part is
    tracked through the squarings.
    """
    num, den = nd
    h0, h1 = fp2_mul(num, fp2_conj(den))
    a = (h0 * h0 - h1 * h1) * pow(h0 * h0 + h1 * h1, -1, P127) % P127
    for _ in range(124):
        a = (2 * a * a - 1) % P127
    return a == 1


@dataclass(frozen=True)
class _CofactorPairings:
    """The three Miller functions and the constants of the model map."""

    b_mont: Fp2Raw
    x_offset: Fp2Raw
    f8: MillerFunction
    f7: MillerFunction
    f7b: MillerFunction


@lru_cache(maxsize=None)
def _pairings() -> _CofactorPairings:
    model = WeierstrassModel.of_fourq()

    def w(x: Fp2Raw, y: Fp2Raw) -> WPoint:
        return model.from_edwards(AffinePoint(x, y, check=False))

    return _CofactorPairings(
        b_mont=model.b_mont,
        x_offset=fp2_mul(model.a_mont, fp2_inv(fp2_mul((3, 0), model.b_mont))),
        f8=MillerFunction.build(model, w(T8_X, T8_Y), 8),
        f7=MillerFunction.build(model, w(T7_X, T7_Y), 7),
        f7b=MillerFunction.build(model, w(T7B_X, T7B_Y), 7),
    )


def cofactor_pairings_trivial(x: Fp2Raw, y: Fp2Raw) -> bool:
    """True iff the on-curve Edwards point ``(x, y)`` lies in ``8E ∩ 7E``.

    The identity is a member.  A point the model map cannot send (x = 0:
    the identity or the order-2 point) or at which a Miller line or
    vertical vanishes is a nonzero multiple of a torsion generator, so
    not a member.
    """
    if x == ZERO:
        return y == ONE
    ctx = _pairings()
    # Edwards -> Montgomery u = (1+y)/(1-y), v = u/x -> Weierstrass
    # (u + A/3)/B, v/B, with one inversion of (1-y) x B.
    inv = fp2_inv(fp2_mul(fp2_mul(fp2_sub(ONE, y), x), ctx.b_mont))
    wy = fp2_mul(fp2_add(ONE, y), inv)
    wx = fp2_add(fp2_mul(wy, x), ctx.x_offset)
    for f, trivial in ((ctx.f7, _t7_trivial), (ctx.f7b, _t7_trivial), (ctx.f8, _t8_trivial)):
        nd = f.evaluate(wx, wy)
        if nd is None or not trivial(nd):
            return False
    return True
