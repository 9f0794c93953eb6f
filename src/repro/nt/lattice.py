"""Integer lattice reduction (LLL) and Babai rounding.

FourQ's 4-dimensional scalar decomposition (paper Section II-B-3) maps a
256-bit scalar k onto four ~64-bit sub-scalars.  The decomposition is a
closest-vector computation in the lattice

    L = { (a1, a2, a3, a4) : a1 + a2*l1 + a3*l2 + a4*l3 === 0 (mod N) }

where l1, l2, l3 are the eigenvalues of the endomorphisms (and their
product) on the order-N subgroup.  Costello-Longa ship a precomputed
optimal basis; we instead *derive* a reduced basis at runtime with LLL,
which this module implements from scratch using exact rational
arithmetic (Fraction), so no floating-point precision issues arise at
the 250-bit scale involved.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

Vector = List[int]
Basis = List[Vector]


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    """Integer dot product."""
    return sum(int(a) * int(b) for a, b in zip(u, v))


def _gram_schmidt(basis: List[List[Fraction]]):
    """Gram-Schmidt orthogonalization over the rationals.

    Returns the orthogonal vectors ``B*`` and the mu coefficients.
    """
    n = len(basis)
    ortho: List[List[Fraction]] = []
    mu = [[Fraction(0)] * n for _ in range(n)]
    norms: List[Fraction] = []
    for i in range(n):
        v = list(basis[i])
        for j in range(i):
            if norms[j] == 0:
                mu[i][j] = Fraction(0)
                continue
            mu[i][j] = sum(a * b for a, b in zip(basis[i], ortho[j])) / norms[j]
            v = [x - mu[i][j] * y for x, y in zip(v, ortho[j])]
        ortho.append(v)
        norms.append(sum(x * x for x in v))
    return ortho, mu, norms


def lll_reduce(basis: Basis, delta: Fraction = Fraction(3, 4)) -> Basis:
    """LLL-reduce an integer basis (rows are basis vectors).

    Classic Lenstra-Lenstra-Lovasz with the Lovasz condition parameter
    ``delta`` (default 3/4).  Exact rational arithmetic keeps the
    routine correct for the 250-bit entries of the FourQ decomposition
    lattice; the dimension there is only 4, so performance is a
    non-issue.

    Returns a new list; the input is not modified.
    """
    b: List[List[Fraction]] = [[Fraction(int(x)) for x in row] for row in basis]
    n = len(b)
    k = 1
    while k < n:
        ortho, mu, norms = _gram_schmidt(b)
        # Size reduction of b_k against all previous vectors.  Each
        # step b_k -= q b_j also moves b_k's coefficients on b_0..b_j,
        # which the later (smaller-j) steps must round.
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
        ortho, mu, norms = _gram_schmidt(b)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            k = max(k - 1, 1)
    return [[int(x) for x in row] for row in b]


def babai_round(basis: Basis, target: Sequence[int]) -> Vector:
    """Babai's rounding technique: approximate closest lattice vector.

    Solves ``x * B ~= target`` over the rationals (B has full row rank)
    and rounds each coordinate, returning the lattice vector
    ``round(x) * B``.  With an LLL-reduced basis the residual
    ``target - result`` is bounded by half the sum of the basis vector
    lengths per coordinate, which is what gives FourQ its ~64-bit
    sub-scalars.
    """
    n = len(basis)
    m = len(target)
    if any(len(row) != m for row in basis):
        raise ValueError("basis rows and target must have equal length")
    # Solve x * B = target by Gaussian elimination on B^T x^T = target^T.
    a = [[Fraction(int(basis[r][c])) for r in range(n)] for c in range(m)]
    rhs = [Fraction(int(t)) for t in target]
    # Forward elimination with partial pivoting (columns = unknowns x_r).
    row = 0
    pivots: List[Tuple[int, int]] = []
    for col in range(n):
        piv = None
        for r in range(row, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            raise ValueError("basis is rank-deficient")
        a[row], a[piv] = a[piv], a[row]
        rhs[row], rhs[piv] = rhs[piv], rhs[row]
        inv = 1 / a[row][col]
        a[row] = [x * inv for x in a[row]]
        rhs[row] = rhs[row] * inv
        for r in range(m):
            if r != row and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
                rhs[r] = rhs[r] - f * rhs[row]
        pivots.append((row, col))
        row += 1
    # Consistency of the overdetermined part is guaranteed when target is
    # in the real span of the basis (always true for full-rank square or
    # when m == n); we only use square bases in this library.
    coeffs = [Fraction(0)] * n
    for r, col in pivots:
        coeffs[col] = rhs[r]
    rounded = [round(c) for c in coeffs]
    return [
        sum(rounded[r] * basis[r][c] for r in range(n)) for c in range(m)
    ]


def determinant(basis: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (Bareiss elimination).

    Every intermediate value stays an integer, so a 250-bit lattice
    basis needs no rational arithmetic.
    """
    m = [[int(x) for x in row] for row in basis]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


def max_abs_entry(basis: Basis) -> int:
    """Largest absolute entry of a basis — the decomposition width check."""
    return max(abs(int(x)) for row in basis for x in row)
