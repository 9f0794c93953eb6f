"""The committed curve constants: generated once, verified at every load.

Deriving phi, psi (division polynomials, Cantor-Zassenhaus, Velu) and
LLL-reducing the decomposition lattice costs most of a fresh process's
set-up.  So the derivation's *generating data* is written once by repo
code and committed as :mod:`repro.curve.derived_constants`::

    python -m repro derive --write

The module holds plain integers only: the kernel x-coordinates of the
2-isogenies tau, tau_dual and delta and of the degree-5 isogeny, the
isomorphism scalars, the eigenvalues and the reduced lattice basis.
:func:`load_constants` rebuilds every map with the Velu constructors
(no rational-map coefficient is stored) and checks the result:

* every coordinate is a canonical F_p element;
* phi and psi pass :func:`repro.curve.derive.verify_endomorphisms`
  (on the curve, additive, squares [8] and [-20], [lambda] G is the
  image of G, phi psi = psi phi) — the checks the derivation ends with;
* the compiled inversion-free maps agree with the affine ones on G;
* every basis row lies in the lattice and |det| = N
  (:class:`repro.curve.decompose.FourQDecomposer`), and the verified
  decomposition width is at most 64 bits, so every recoding is 65
  digits.

A failed check logs one warning, counts
``repro_curve_constants_fallbacks_total`` and falls back to the full
derivation.  ``tests/test_committed.py`` re-derives from scratch and
asserts the committed module is byte-identical to the generator's
output, and ``python -m repro verify`` reports the same comparison.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Tuple

from ..field.fp import P127
from ..field.fp2 import fp2_mul
from ..obs import get_registry
from .decompose import FourQDecomposer
from .derive import DerivedEndomorphisms, derive_endomorphisms, verify_endomorphisms
from .endomaps import CompiledEndo, apply_compiled_endo, compile_endomorphisms
from .point import AffinePoint

__all__ = [
    "COMMITTED_PATH",
    "FIELDS",
    "CurveConstants",
    "curve_constants",
    "derive_constants",
    "load_constants",
    "render_constants",
    "verify_constants",
]

log = logging.getLogger(__name__)

#: The generated module, as ``derive --write`` writes it.
COMMITTED_PATH = Path(__file__).with_name("derived_constants.py")

#: The stored fields, in file order, with the comment each carries.
FIELDS = {
    "TAU_KERNEL_X": "x of the kernel of tau: E_W -> W",
    "TAU_DUAL_KERNEL_X": "x of the kernel of tau_dual: W -> E_W (up to u_tau_dual)",
    "DELTA_KERNEL_X": "x of the kernel of delta: W -> conj(W) (up to u_delta)",
    "VELU5_KERNEL_XS": "the F_{p^4} kernel x pair of the 5-isogeny W -> conj(W)",
    "U_TAU_DUAL": "isomorphism scalar after tau_dual",
    "U_DELTA": "isomorphism scalar after delta",
    "U_VELU5": "isomorphism scalar after the 5-isogeny",
    "LAMBDA_PHI": "eigenvalue of phi on the order-N subgroup (sqrt(-20) mod N)",
    "LAMBDA_PSI": "eigenvalue of psi on the order-N subgroup (sqrt(8) mod N)",
    "BASIS": "reduced basis of the decomposition lattice",
}

#: Fields whose leaves are F_p coordinates (must be canonical).
_COORDINATE_FIELDS = (
    "TAU_KERNEL_X", "TAU_DUAL_KERNEL_X", "DELTA_KERNEL_X", "VELU5_KERNEL_XS",
    "U_TAU_DUAL", "U_DELTA", "U_VELU5",
)

#: Seed of the random subgroup points the load checks use.
_CHECK_SEED = 2019


@dataclass(frozen=True)
class CurveConstants:
    """Everything the scalar-multiplication paths need from the curve."""

    endo: DerivedEndomorphisms
    compiled: Tuple[CompiledEndo, CompiledEndo]  # (phi, psi)
    decomposer: FourQDecomposer
    source: str  # "committed" or "derived"


def _fields_of(constants: CurveConstants) -> dict:
    endo, decomposer = constants.endo, constants.decomposer
    return {
        "TAU_KERNEL_X": endo.tau.x0,
        "TAU_DUAL_KERNEL_X": endo.tau_dual.x0,
        "DELTA_KERNEL_X": endo.delta.x0,
        "VELU5_KERNEL_XS": endo.velu5.kernel_xs,
        "U_TAU_DUAL": endo.u_tau_dual,
        "U_DELTA": endo.u_delta,
        "U_VELU5": endo.u_velu5,
        "LAMBDA_PHI": endo.lambda_phi,
        "LAMBDA_PSI": endo.lambda_psi,
        "BASIS": decomposer.basis,
    }


def _literal(value, indent: int = 0) -> str:
    """Integers in hex, sequences as tuples, wrapped past 88 columns."""
    if isinstance(value, int):
        return f"-{-value:#x}" if value < 0 else f"{value:#x}"
    flat = "(" + ", ".join(_literal(v) for v in value) + ")"
    if indent + len(flat) <= 88:
        return flat
    pad = " " * (indent + 4)
    items = "".join(f"{pad}{_literal(v, indent + 4)},\n" for v in value)
    return "(\n" + items + " " * indent + ")"


def render_constants(constants: CurveConstants) -> str:
    """The source text of :mod:`repro.curve.derived_constants`."""
    lines = [
        '"""FourQ endomorphism and decomposition constants (generated; do not edit).',
        "",
        "Written by ``python -m repro derive --write`` from",
        "repro.curve.derive.derive_endomorphisms and",
        "repro.curve.decompose.FourQDecomposer; repro.curve.committed rebuilds",
        "the maps from these values and verifies them at load.",
        '"""',
    ]
    for name, value in _fields_of(constants).items():
        lines += ["", f"#: {FIELDS[name]}", f"{name} = {_literal(value)}"]
    return "\n".join(lines) + "\n"


def _leaves(value):
    if isinstance(value, (tuple, list)):
        for v in value:
            yield from _leaves(v)
    else:
        yield value


def _check_compiled(endo: DerivedEndomorphisms, compiled) -> None:
    g = AffinePoint.generator()
    for c, evaluate in zip(compiled, (endo.phi, endo.psi)):
        r1 = apply_compiled_endo(c, g.x, g.y)
        img = evaluate(g)
        if r1.z == (0, 0) or (fp2_mul(img.x, r1.z), fp2_mul(img.y, r1.z)) != (r1.x, r1.y):
            raise ValueError(f"compiled {c.name} disagrees with the affine map on G")


def _decomposer(endo: DerivedEndomorphisms, basis=None) -> FourQDecomposer:
    """The decomposer matched to ``endo``, refused if wider than 64 bits.

    Every recoding is 65 digits (:func:`repro.curve.recoding.recode_glv_sac`),
    which holds sub-scalars below 2^64.
    """
    decomposer = FourQDecomposer(
        lambda_phi=endo.lambda_phi, lambda_psi=endo.lambda_psi, basis=basis
    )
    if decomposer.max_scalar_bits > 64:
        raise ValueError(
            f"decomposition is {decomposer.max_scalar_bits} bits wide; "
            "a 65-digit recoding holds 64"
        )
    return decomposer


def verify_constants(source) -> CurveConstants:
    """Rebuild the curve constants from ``source``'s fields and check them.

    ``source`` is :mod:`repro.curve.derived_constants` or any object
    with the same attributes.

    Raises:
        Exception: whichever check or reconstruction step fails first.
    """
    values = {name: getattr(source, name) for name in FIELDS}
    for name in _COORDINATE_FIELDS:
        if not all(type(v) is int and 0 <= v < P127 for v in _leaves(values[name])):
            raise ValueError(f"{name} holds a non-canonical coordinate")
    endo = DerivedEndomorphisms.from_kernels(
        tau_x=values["TAU_KERNEL_X"],
        tau_dual_x=values["TAU_DUAL_KERNEL_X"],
        delta_x=values["DELTA_KERNEL_X"],
        velu5_xs=values["VELU5_KERNEL_XS"],
        u_tau_dual=values["U_TAU_DUAL"],
        u_delta=values["U_DELTA"],
        u_velu5=values["U_VELU5"],
        lambda_phi=values["LAMBDA_PHI"],
        lambda_psi=values["LAMBDA_PSI"],
    )
    verify_endomorphisms(endo, random.Random(_CHECK_SEED))
    compiled = compile_endomorphisms(endo)
    _check_compiled(endo, compiled)
    return CurveConstants(
        endo, compiled, _decomposer(endo, values["BASIS"]), source="committed"
    )


@lru_cache(maxsize=1)
def derive_constants() -> CurveConstants:
    """The curve constants from first principles (derivation + LLL)."""
    endo = derive_endomorphisms()
    return CurveConstants(
        endo, compile_endomorphisms(endo), _decomposer(endo), source="derived"
    )


def load_constants(source) -> CurveConstants:
    """Verified constants from ``source``, or the derivation if a check fails."""
    try:
        return verify_constants(source)
    except Exception as exc:  # any failed rebuild or check: derive instead
        log.warning("committed curve constants rejected (%s: %s); deriving from "
                    "scratch", type(exc).__name__, exc, exc_info=True)
        get_registry().counter("repro_curve_constants_fallbacks_total").inc()
        return derive_constants()


@lru_cache(maxsize=1)
def curve_constants() -> CurveConstants:
    """The process-wide curve constants: the committed module, verified."""
    from . import derived_constants

    return load_constants(derived_constants)
