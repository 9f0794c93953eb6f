"""Runtime derivation of FourQ's endomorphisms psi and phi.

FourQ's speed comes from two efficiently-computable endomorphisms whose
published explicit formulas rest on sixteen 128-bit "magic" constants
(Costello-Longa, App. A).  Rather than transcribe unverifiable
constants, this module *derives* equivalent endomorphisms from first
principles and machine-verifies every step.  The construction mirrors
the mathematical origin of the published maps:

1.  Move to the short Weierstrass model ``E_W`` of FourQ.
2.  ``E_W`` is 2-isogenous (the map ``tau``) to a curve ``W`` that is a
    **degree-2 Q-curve**: ``W`` admits a 2-isogeny ``delta`` onto (a
    model isomorphic to) its own Galois conjugate ``W^sigma``.  The
    composite

        psi_W = conj o iso o delta : W -> W

    (coordinate conjugation evaluates the p-power Frobenius on rational
    points) is an endomorphism of degree 2p, and

        psi = tau_dual o psi_W o tau : E -> E

    satisfies the verified relation **psi^2 = [8]** on the order-N
    subgroup, giving the eigenvalue lambda_psi = sqrt(8) mod N.
3.  ``W`` also admits a 5-isogeny onto its conjugate, whose kernel
    x-coordinates form a Galois-conjugate pair in F_{p^4} (found by
    factoring the 5-division polynomial).  The same sandwich produces

        phi = tau_dual o (conj o iso o velu5) o tau : E -> E

    with the verified relation **phi^2 = [-20]** and eigenvalue
    lambda_phi = sqrt(-20) mod N.

Both maps are verified at derivation time to be additive, to commute,
to land on the curve, and to act as the claimed eigenvalues — the
derivation *fails loudly* rather than ever returning an unverified map.
The derivation's generating data (kernels, isomorphism scalars,
eigenvalues) is committed as :mod:`repro.curve.derived_constants`;
:mod:`repro.curve.committed` rebuilds the maps from it and re-runs the
same checks (:func:`verify_endomorphisms`) at load.
The resulting eigenvalue pair yields a 62-bit LLL basis for the
4-dimensional decomposition lattice, i.e. exactly the "four 64-bit
scalars" of the paper's Algorithm 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Tuple

from ..field.fp2 import Fp2Raw, fp2_conj, fp2_mul, fp2_sqr, fp2_sub
from ..field.tower import Fp4Raw, f4, f4_mul, f4_neg, f4_sub, f4_sqrt, f4_inv
from ..nt.poly import poly_quadratic_part, poly_split_quadratics, poly_deg
from ..nt.primes import sqrt_mod_prime
from .params import SUBGROUP_ORDER_N
from .point import AffinePoint, random_subgroup_point
from .wmodel import (
    Isogeny2,
    Isogeny5,
    WeierstrassModel,
    WPoint,
    conj_point,
    division_poly_5,
    find_isomorphisms,
    j_invariant,
    scale_point,
    two_torsion_xs,
    x_double,
)


class DerivationError(RuntimeError):
    """Raised when the endomorphism derivation cannot be completed."""


#: Verified relations: psi^2 = [PSI_SQUARE], phi^2 = [PHI_SQUARE].
PSI_SQUARE = 8
PHI_SQUARE = -20


@dataclass
class DerivedEndomorphisms:
    """The derived, verified endomorphism pair.

    ``phi(P)`` and ``psi(P)`` evaluate the endomorphisms on affine
    points (the identity maps to the identity).  ``lambda_phi`` and
    ``lambda_psi`` are their verified eigenvalues on the order-N
    subgroup: for P of order N, ``phi(P) == [lambda_phi] P``.
    """

    model: WeierstrassModel
    tau: Isogeny2
    tau_dual: Isogeny2
    u_tau_dual: Fp2Raw
    delta: Isogeny2
    u_delta: Fp2Raw
    velu5: Isogeny5
    u_velu5: Fp2Raw
    lambda_phi: int
    lambda_psi: int
    n: int = SUBGROUP_ORDER_N

    # -- evaluation ---------------------------------------------------
    def _sandwich(
        self, pt: AffinePoint, middle: Callable[[WPoint], WPoint], u_mid: Fp2Raw
    ) -> AffinePoint:
        if pt.is_identity():
            return AffinePoint.identity()
        w = self.model.from_edwards(pt)
        w = self.tau(w)
        w = middle(w)
        w = scale_point(w, u_mid)
        w = conj_point(w)
        w = self.tau_dual(w)
        w = scale_point(w, self.u_tau_dual)
        return self.model.to_edwards(w)

    def psi(self, pt: AffinePoint) -> AffinePoint:
        """The degree-(8p) endomorphism with psi^2 = [8]."""
        return self._sandwich(pt, self.delta, self.u_delta)

    def phi(self, pt: AffinePoint) -> AffinePoint:
        """The degree-(20p) endomorphism with phi^2 = [-20]."""
        return self._sandwich(pt, self.velu5, self.u_velu5)

    @property
    def lambda_phipsi(self) -> int:
        """Eigenvalue of the composition psi o phi."""
        return self.lambda_phi * self.lambda_psi % self.n

    @classmethod
    def from_kernels(
        cls,
        tau_x: Fp2Raw,
        tau_dual_x: Fp2Raw,
        delta_x: Fp2Raw,
        velu5_xs: Tuple[Fp4Raw, Fp4Raw],
        u_tau_dual: Fp2Raw,
        u_delta: Fp2Raw,
        u_velu5: Fp2Raw,
        lambda_phi: int,
        lambda_psi: int,
    ) -> "DerivedEndomorphisms":
        """Rebuild the pair from its generating data (nothing verified).

        The isogenies are reconstructed from their kernels with the
        Velu constructors, so the rational-map coefficients are never
        stored; :func:`verify_endomorphisms` checks the result.
        """
        model = WeierstrassModel.of_fourq()
        tau = Isogeny2.from_kernel(model.a, model.b, tau_x)
        a_w, b_w = tau.a_image, tau.b_image
        return cls(
            model=model,
            tau=tau,
            tau_dual=Isogeny2.from_kernel(a_w, b_w, tau_dual_x),
            u_tau_dual=u_tau_dual,
            delta=Isogeny2.from_kernel(a_w, b_w, delta_x),
            u_delta=u_delta,
            velu5=Isogeny5.from_kernel_pair(a_w, b_w, *velu5_xs),
            u_velu5=u_velu5,
            lambda_phi=lambda_phi,
            lambda_psi=lambda_psi,
        )


def _derive_psi_pieces(model: WeierstrassModel):
    """Find tau (E->W), delta (W -> ~W^sigma), tau_dual and isomorphisms."""
    j_e = j_invariant(model.a, model.b)

    roots_e = two_torsion_xs(model.a, model.b)
    if not roots_e:
        raise DerivationError("E_W has no rational 2-torsion")
    tau = Isogeny2.from_kernel(model.a, model.b, roots_e[0])
    a_w, b_w = tau.a_image, tau.b_image
    j_w = j_invariant(a_w, b_w)

    delta = None
    tau_dual = None
    for x0 in two_torsion_xs(a_w, b_w):
        cand = Isogeny2.from_kernel(a_w, b_w, x0)
        j_img = j_invariant(cand.a_image, cand.b_image)
        if j_img == fp2_conj(j_w):
            delta = cand
        elif j_img == j_e:
            tau_dual = cand
    if delta is None:
        raise DerivationError("W is not 2-isogenous to its conjugate")
    if tau_dual is None:
        raise DerivationError("no dual 2-isogeny W -> E found")

    us_delta = find_isomorphisms(
        delta.a_image, delta.b_image, fp2_conj(a_w), fp2_conj(b_w)
    )
    if not us_delta:
        raise DerivationError("delta image is not isomorphic to conj(W)")
    us_tau_dual = find_isomorphisms(
        tau_dual.a_image, tau_dual.b_image, model.a, model.b
    )
    if not us_tau_dual:
        raise DerivationError("tau_dual image is not isomorphic to E")
    return tau, delta, tau_dual, us_delta, us_tau_dual, (a_w, b_w)


def _derive_phi_velu(a_w: Fp2Raw, b_w: Fp2Raw) -> Tuple[Isogeny5, List[Fp2Raw]]:
    """Find the degree-5 isogeny W -> ~W^sigma with F_{p^4} kernel pair."""
    psi5 = division_poly_5(a_w, b_w)
    quad_part = poly_quadratic_part(psi5)
    if poly_deg(quad_part) < 2:
        raise DerivationError("5-division polynomial has no small factors")
    # Remove rational roots (linear factors) if any appeared.
    candidates = []
    for h in poly_split_quadratics(quad_part):
        c1, c0 = h[1], h[0]
        disc = fp2_sub(fp2_sqr(c1), fp2_mul((4, 0), c0))
        sd = f4_sqrt(f4(disc))
        if sd is None:
            continue
        inv2 = f4_inv(f4((2, 0)))
        x1 = f4_mul(f4_sub(sd, f4(c1)), inv2)
        x2 = f4_mul(f4_sub(f4_neg(sd), f4(c1)), inv2)
        xd = x_double(a_w, b_w, x1)
        if xd not in (x1, x2):
            continue  # the two roots do not span one order-5 subgroup
        candidates.append((x1, x2))
    j_w_conj = fp2_conj(j_invariant(a_w, b_w))
    for x1, x2 in candidates:
        try:
            iso5 = Isogeny5.from_kernel_pair(a_w, b_w, x1, x2)
        except ValueError:
            continue
        if j_invariant(iso5.a_image, iso5.b_image) != j_w_conj:
            continue
        us = find_isomorphisms(
            iso5.a_image, iso5.b_image, fp2_conj(a_w), fp2_conj(b_w)
        )
        if us:
            return iso5, us
    raise DerivationError("no degree-5 isogeny W -> conj(W) found")


def _check_endo(
    evaluate: Callable[[AffinePoint], AffinePoint],
    square_scalar: int,
    rng: random.Random,
    lam: Optional[int] = None,
    n: int = SUBGROUP_ORDER_N,
) -> Optional[int]:
    """Verify a candidate endomorphism and return its eigenvalue.

    Checks (on the order-N subgroup): output on curve, additivity, the
    relation endo^2 = [square_scalar], and that [lam] G is the image of
    G, for the given ``lam`` or else for either square root of
    ``square_scalar``.  Returns None if any check fails.
    """
    g = AffinePoint.generator()
    img = evaluate(g)
    from .params import is_on_curve

    if not is_on_curve(img.x, img.y):
        return None
    p1 = random_subgroup_point(rng)
    if evaluate(p1 + g) != evaluate(p1) + img:
        return None
    square_g = abs(square_scalar) * g
    if evaluate(img) != (square_g if square_scalar > 0 else -square_g):
        return None
    if lam is None:
        root = sqrt_mod_prime(square_scalar % n, n)
        if root is None:
            return None
        candidates: Tuple[int, ...] = (root, n - root)
    else:
        candidates = (lam,)
    return next((c for c in candidates if c * g == img), None)


def verify_endomorphisms(endo: DerivedEndomorphisms, rng: random.Random) -> None:
    """The checks every (phi, psi) pair passes before it is used.

    Both maps land on the curve, are additive, square to [8] and [-20],
    and map G to [lambda] G for their recorded eigenvalues; and they
    commute (needed for the 4-dimensional decomposition to be
    well-defined).  The derivation ends with these checks and loading
    the committed constants runs them again.

    Raises:
        DerivationError: naming the first check that fails.
    """
    for name, evaluate, square, lam in (
        ("psi", endo.psi, PSI_SQUARE, endo.lambda_psi),
        ("phi", endo.phi, PHI_SQUARE, endo.lambda_phi),
    ):
        if _check_endo(evaluate, square, rng, lam=lam) is None:
            raise DerivationError(f"{name} fails its endomorphism checks")
    g = AffinePoint.generator()
    if endo.psi(endo.phi(g)) != endo.phi(endo.psi(g)):
        raise DerivationError("phi and psi do not commute")


@lru_cache(maxsize=1)
def derive_endomorphisms(seed: int = 2019) -> DerivedEndomorphisms:
    """Derive and fully verify the (phi, psi) endomorphism pair.

    The result is cached per process (the derivation costs about 0.6 s,
    dominated by factoring the 5-division polynomial).  Serving paths
    load the committed constants instead
    (:func:`repro.curve.committed.curve_constants`).

    Raises:
        DerivationError: if any construction or verification step fails.
    """
    rng = random.Random(seed)
    model = WeierstrassModel.of_fourq()
    tau, delta, tau_dual, us_delta, us_tau_dual, (a_w, b_w) = _derive_psi_pieces(
        model
    )
    velu5, us_velu5 = _derive_phi_velu(a_w, b_w)

    # Resolve the isomorphism sign ambiguities by testing all candidates.
    psi_choice = None
    for u_d in us_delta:
        for u_t in us_tau_dual:
            cand = DerivedEndomorphisms(
                model=model,
                tau=tau,
                tau_dual=tau_dual,
                u_tau_dual=u_t,
                delta=delta,
                u_delta=u_d,
                velu5=velu5,
                u_velu5=us_velu5[0],
                lambda_phi=0,
                lambda_psi=0,
            )
            lam = _check_endo(cand.psi, PSI_SQUARE, rng)
            if lam is not None:
                psi_choice = (u_d, u_t, lam)
                break
        if psi_choice:
            break
    if psi_choice is None:
        raise DerivationError("no isomorphism choice makes psi an endomorphism")
    u_d, u_t, lambda_psi = psi_choice

    phi_choice = None
    for u_5 in us_velu5:
        cand = DerivedEndomorphisms(
            model=model,
            tau=tau,
            tau_dual=tau_dual,
            u_tau_dual=u_t,
            delta=delta,
            u_delta=u_d,
            velu5=velu5,
            u_velu5=u_5,
            lambda_phi=0,
            lambda_psi=lambda_psi,
        )
        lam = _check_endo(cand.phi, PHI_SQUARE, rng)
        if lam is not None:
            phi_choice = (u_5, lam)
            break
    if phi_choice is None:
        raise DerivationError("no isomorphism choice makes phi an endomorphism")
    u_5, lambda_phi = phi_choice

    endo = DerivedEndomorphisms(
        model=model,
        tau=tau,
        tau_dual=tau_dual,
        u_tau_dual=u_t,
        delta=delta,
        u_delta=u_d,
        velu5=velu5,
        u_velu5=u_5,
        lambda_phi=lambda_phi,
        lambda_psi=lambda_psi,
    )

    verify_endomorphisms(endo, rng)
    return endo
