"""Endomorphism providers for the FourQ scalar-multiplication pipeline.

Two interchangeable implementations of the (phi, psi) pair:

* :class:`IsogenyEndomorphisms` — the real thing: explicit isogeny-based
  rational maps derived by :mod:`repro.curve.derive`, committed as
  :mod:`repro.curve.derived_constants` and verified at load by
  :mod:`repro.curve.committed` (the default).
* :class:`EigenvalueEndomorphisms` — an oracle that evaluates
  ``phi(P) = [lambda_phi] P`` by plain double-and-add.  Mathematically
  identical on the order-N subgroup (this is *why* the decomposition
  works), but slow; it exists as a fallback and as an independent
  cross-check for the derived maps.

Both expose the same eigenvalues, so :class:`repro.curve.decompose.
FourQDecomposer` built from either provider produces identical
sub-scalars.
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
    """Oracle endomorphisms: phi = [lambda_phi], psi = [lambda_psi].

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


class IsogenyEndomorphisms:
    """The derived isogeny-based endomorphisms (thin facade over derive).

    Instantiation loads the verified committed constants (cached per
    process); see :func:`repro.curve.committed.curve_constants`.
    """

    def __init__(self) -> None:
        self._endo = curve_constants().endo
        self.lambda_phi = self._endo.lambda_phi
        self.lambda_psi = self._endo.lambda_psi

    def phi(self, pt: AffinePoint) -> AffinePoint:
        return self._endo.phi(pt)

    def psi(self, pt: AffinePoint) -> AffinePoint:
        return self._endo.psi(pt)


_DEFAULT_PROVIDER: EndomorphismProvider = None  # type: ignore[assignment]


def default_endomorphisms() -> EndomorphismProvider:
    """The process-wide default provider (isogeny-based, loaded lazily)."""
    global _DEFAULT_PROVIDER
    if _DEFAULT_PROVIDER is None:
        _DEFAULT_PROVIDER = IsogenyEndomorphisms()
    return _DEFAULT_PROVIDER


def default_decomposer() -> FourQDecomposer:
    """The decomposer matched to the default endomorphism eigenvalues.

    Built on the committed reduced basis, verified at load, so no LLL
    runs in a fresh process.
    """
    return curve_constants().decomposer
