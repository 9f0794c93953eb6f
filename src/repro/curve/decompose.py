"""Four-dimensional scalar decomposition for FourQ (paper Section II-B-3).

A 256-bit scalar k is decomposed into four ~64-bit positive sub-scalars
(a1, a2, a3, a4), a1 odd, such that

    [k]P = [a1]P + [a2]phi(P) + [a3]psi(P) + [a4]psi(phi(P))

for P in the order-N subgroup.  Writing l1, l2 for the eigenvalues of
phi and psi on that subgroup (and l3 = l1*l2 for their composition),
the requirement is the congruence

    a1 + a2*l1 + a3*l2 + a4*l3  ===  k   (mod N).

The solution set is a coset of the 4-dimensional lattice

    L = { a in Z^4 : a . (1, l1, l2, l3) === 0 (mod N) },

and short coset representatives are found with Babai rounding against an
LLL-reduced basis of L.  Per scalar the rounding is exact integer
arithmetic on precomputed constants, as in Costello-Longa's rounding
decomposition: no rational linear solve runs per call.  Costello-Longa ship a hand-optimized basis and
offset vectors; this module *derives* the basis with LLL from the
eigenvalues (or verifies a given one: every row in L, |det| = N) and
machine-verifies the resulting widths, so nothing is trusted from
memory:

* the eigenvalues of the derived maps are l1 = sqrt(-20) (phi) and
  l2 = sqrt(8) (psi) modulo N: twice a square root of -5 (the degree-5
  endomorphism) and of +2 (the degree-2 Q-curve endomorphism), the
  factor 2 coming from the tau / tau_dual pair both maps pass through.
  The decomposer takes them as arguments; the matched instance is
  :func:`repro.curve.endomorphisms.default_decomposer`;
* the LLL basis entries come out at 62 bits, matching the paper's
  "four 64-bit scalars";
* two precomputed offset vectors (of opposite first-coordinate parity)
  shift every decomposition into the positive orthant with a1 odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..nt.lattice import babai_round, determinant, lll_reduce
from ..nt.primes import sqrt_mod_prime
from .params import SUBGROUP_ORDER_N


def phi_eigenvalue_candidates(n: int = SUBGROUP_ORDER_N) -> Tuple[int, int]:
    """Both square roots of -5 modulo N.

    A trace-0 degree-5 endomorphism has an eigenvalue with
    l^2 + 5 === 0 (mod N); the derived phi's eigenvalue is twice one
    of these (phi squares to [-20]).
    """
    r = sqrt_mod_prime(-5 % n, n)
    if r is None:
        raise ArithmeticError("-5 is not a QR mod N; wrong subgroup order?")
    return (r, n - r)


def psi_eigenvalue_candidates(n: int = SUBGROUP_ORDER_N) -> Tuple[int, int]:
    """Both square roots of +2 modulo N.

    A degree-2 endomorphism squaring to [2] on the order-N subgroup has
    an eigenvalue with l^2 - 2 === 0 (mod N); the derived psi's
    eigenvalue is twice one of these (psi squares to [8]).
    """
    r = sqrt_mod_prime(2, n)
    if r is None:
        raise ArithmeticError("2 is not a QR mod N; wrong subgroup order?")
    return (r, n - r)


@dataclass(frozen=True)
class Decomposition:
    """Result of decomposing a scalar k."""

    scalars: Tuple[int, int, int, int]
    k_mod_n: int

    def __iter__(self):
        return iter(self.scalars)

    @property
    def max_bits(self) -> int:
        """Bit width of the widest sub-scalar."""
        return max(s.bit_length() for s in self.scalars)


class FourQDecomposer:
    """Decomposes scalars into four short positive sub-scalars.

    Args:
        lambda_phi: eigenvalue of phi mod N, matched to the map in use
            (sqrt(-20) for the derived phi).
        lambda_psi: eigenvalue of psi mod N (sqrt(8) for the derived psi).
        n: subgroup order.
        basis: a reduced basis of the lattice to use instead of running
            LLL (the committed one, :mod:`repro.curve.committed`); it is
            verified, not trusted.

    The constructor performs the one-time lattice setup: basis
    reduction (or verification of the given basis), the integer
    rounding constants (the first row of B^-1 over den = N), offset-vector
    search, and width verification.

    Raises:
        ValueError: if N is even or the basis is not a basis of the
            lattice.
    """

    def __init__(
        self,
        lambda_phi: int,
        lambda_psi: int,
        n: int = SUBGROUP_ORDER_N,
        basis: Optional[Sequence[Sequence[int]]] = None,
    ):
        if n % 2 == 0:
            # Integer rounding relies on an odd N (no half-way ties).
            raise ValueError("N must be odd")
        self.n = n
        self.lambda_phi = lambda_phi
        self.lambda_psi = lambda_psi
        self.lambda_phipsi = self.lambda_phi * self.lambda_psi % n
        self._lams = (1, self.lambda_phi, self.lambda_psi, self.lambda_phipsi)

        if basis is None:
            basis = lll_reduce([
                [n, 0, 0, 0],
                [-self.lambda_phi, 1, 0, 0],
                [-self.lambda_psi, 0, 1, 0],
                [-self.lambda_phipsi, 0, 0, 1],
            ])
        self.basis = [list(row) for row in basis]
        # Rows inside the lattice spanning a sublattice of index N: the
        # lattice itself, whose index in Z^4 is N.
        if len(self.basis) != 4 or any(
            len(row) != 4 or not all(type(v) is int for v in row) for row in self.basis
        ):
            raise ValueError("basis must be a 4 x 4 integer matrix")
        for row in self.basis:
            if self._dot_lams(row) % n != 0:
                raise ValueError(f"basis row {row} is not in the lattice")
        det = determinant(self.basis)
        if abs(det) != n:
            raise ValueError("basis does not span the lattice (|det| != N)")

        # Babai rounding of (k, 0, 0, 0) needs only the first row of
        # B^-1 = adj(B) / det: x_j = k * num_j / den with den = |det| = N.
        # Cofactor C[j][0] is adj(B)[0][j]; the sign of det moves into
        # the numerators so the denominator stays positive.
        sign = 1 if det > 0 else -1
        self._round_den = abs(det)
        self._round_num = tuple(
            sign * (-1) ** j * determinant(
                [row[1:] for i, row in enumerate(self.basis) if i != j]
            )
            for j in range(4)
        )

        # Per-coordinate residual bound of Babai rounding: half the sum
        # of absolute basis entries in that coordinate.
        self._residual_bound = [
            sum(abs(self.basis[r][c]) for r in range(4)) // 2 + 1 for c in range(4)
        ]

        # Offset vectors: lattice points near a strictly positive center,
        # one for each parity of the first coordinate.
        self._offsets = self._build_offsets()

        # Verified output width (bits) for any k.
        self.max_scalar_bits = max(
            (c + 2 * b).bit_length()
            for off in self._offsets
            for c, b in zip(off, self._residual_bound)
        )

    # -- setup helpers ----------------------------------------------
    def _dot_lams(self, vec: List[int]) -> int:
        return sum(int(v) * l for v, l in zip(vec, self._lams))

    def _build_offsets(self) -> Tuple[List[int], List[int]]:
        """Two nearby positive lattice vectors with odd / even first coords.

        The center is placed at twice the residual bound so that
        ``offset + residual`` stays strictly positive and as narrow as
        possible.  A basis vector with odd first coordinate always
        exists (the lattice contains (N, 0, 0, 0) with N odd), and
        adding it flips the parity.
        """
        center = [2 * b for b in self._residual_bound]
        base = babai_round(self.basis, center)
        odd_row = next(
            (row for row in self.basis if row[0] % 2 != 0),
            None,
        )
        if odd_row is None:
            # Basis rows all even in coordinate 0: combine two rows; by
            # generation of (N,0,0,0) this cannot happen, but stay safe.
            raise AssertionError("no odd-first-coordinate basis vector")
        other = [b + o for b, o in zip(base, odd_row)]
        if base[0] % 2 == 0:
            even_off, odd_off = base, other
        else:
            even_off, odd_off = other, base
        for off in (even_off, odd_off):
            for coord, bound in zip(off, self._residual_bound):
                if coord - bound <= 0:
                    # Push the center further out and retry once.
                    wider = [4 * b for b in self._residual_bound]
                    base2 = babai_round(self.basis, wider)
                    other2 = [b + o for b, o in zip(base2, odd_row)]
                    if base2[0] % 2 == 0:
                        return (base2, other2)
                    return (other2, base2)
        return (even_off, odd_off)

    # -- public API ---------------------------------------------------
    def closest_vector(self, k: int) -> List[int]:
        """Babai rounding of the target (k, 0, 0, 0), in integers.

        Equals ``babai_round(self.basis, [k, 0, 0, 0])`` for every
        integer k.  Each coefficient x_j = k * num_j / N is rounded as
        floor(x_j + 1/2) = (2 k num_j + N) // (2 N).  N is odd, so
        2 k num_j is never an odd multiple of N: no coefficient is ever
        exactly half-way, and no tie-breaking rule is needed.
        """
        den2 = 2 * self._round_den
        x = [(2 * k * num + self._round_den) // den2 for num in self._round_num]
        return [sum(xr * row[c] for xr, row in zip(x, self.basis)) for c in range(4)]

    def decompose(self, k: int) -> Decomposition:
        """Decompose ``k`` into four positive sub-scalars with a1 odd.

        Works for any integer k (taken mod N).  The result satisfies

            a1 + a2*l_phi + a3*l_psi + a4*l_phi*l_psi === k (mod N),
            0 < a_j < 2^max_scalar_bits,   a1 odd.
        """
        k_mod = k % self.n
        target = [k_mod, 0, 0, 0]
        close = self.closest_vector(k_mod)
        residual = [t - c for t, c in zip(target, close)]
        # Choose the offset that makes a1 odd.
        even_off, odd_off = self._offsets
        offset = odd_off if residual[0] % 2 == 0 else even_off
        scalars = tuple(r + o for r, o in zip(residual, offset))
        if any(s <= 0 for s in scalars):
            raise AssertionError(f"decomposition not positive: {scalars}")
        if scalars[0] % 2 != 1:
            raise AssertionError("a1 is not odd")
        if self._dot_lams(list(scalars)) % self.n != k_mod:
            raise AssertionError("decomposition does not recompose to k")
        return Decomposition(scalars=scalars, k_mod_n=k_mod)  # type: ignore[arg-type]

    def recompose(self, scalars) -> int:
        """Inverse check: map sub-scalars back to the scalar mod N."""
        return self._dot_lams(list(scalars)) % self.n
