"""Endomorphism providers for the FourQ scalar-multiplication pipeline.

The production pair is :class:`repro.curve.derive.DerivedEndomorphisms`:
the isogeny-based rational maps derived by :mod:`repro.curve.derive`,
committed as :mod:`repro.curve.derived_constants` and verified at load
by :mod:`repro.curve.committed`.  :func:`default_endomorphisms` and
:func:`default_decomposer` read it, and its matched decomposer, from
:func:`repro.curve.committed.curve_constants`.

:class:`EigenvalueEndomorphisms` is an independent cross-check: it
evaluates ``phi(P) = [lambda_phi] P`` by plain double-and-add.
Mathematically identical on the order-N subgroup (this is *why* the
decomposition works), but slow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from .committed import curve_constants
from .decompose import FourQDecomposer
from .params import SUBGROUP_ORDER_N
from .point import AffinePoint


class EndomorphismProvider(Protocol):
    """What the scalar-multiplication pipeline needs from (phi, psi)."""

    lambda_phi: int
    lambda_psi: int

    def phi(self, pt: AffinePoint) -> AffinePoint:
        """Evaluate phi on an affine point of the order-N subgroup."""
        ...

    def psi(self, pt: AffinePoint) -> AffinePoint:
        """Evaluate psi on an affine point of the order-N subgroup."""
        ...


@dataclass(frozen=True)
class EigenvalueEndomorphisms:
    """Cross-check endomorphisms: phi = [lambda_phi], psi = [lambda_psi].

    Exact on the order-N subgroup by definition of the eigenvalues.
    Roughly 250x slower per application than the isogeny maps — use for
    cross-checks, not production paths.
    """

    lambda_phi: int
    lambda_psi: int
    n: int = SUBGROUP_ORDER_N

    def phi(self, pt: AffinePoint) -> AffinePoint:
        return self.lambda_phi * pt

    def psi(self, pt: AffinePoint) -> AffinePoint:
        return self.lambda_psi * pt


def default_endomorphisms() -> EndomorphismProvider:
    """The process-wide (phi, psi): the verified committed constants."""
    return curve_constants().endo


def default_decomposer() -> FourQDecomposer:
    """The decomposer matched to :func:`default_endomorphisms`."""
    return curve_constants().decomposer
