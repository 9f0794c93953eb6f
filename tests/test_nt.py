"""Tests for the number-theory substrate: primes, lattices, polynomials."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.field.fp import P127
from repro.nt.lattice import babai_round, dot, lll_reduce, max_abs_entry
from repro.nt.primes import inverse_mod, is_probable_prime, sqrt_mod_prime
from repro.nt.poly import (
    poly_add,
    poly_deg,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_from_roots,
    poly_gcd,
    poly_monic,
    poly_mul,
    poly_pow_mod,
    poly_quadratic_part,
    poly_roots,
    poly_split_quadratics,
    poly_trim,
)


class TestPrimes:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 101, 65537):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 561, 1105, 6601, 2**127):  # includes Carmichaels
            assert not is_probable_prime(n)

    def test_mersenne_127(self):
        assert is_probable_prime(P127)

    def test_fourq_subgroup_order(self):
        from repro.curve.params import SUBGROUP_ORDER_N

        assert is_probable_prime(SUBGROUP_ORDER_N)

    @given(st.integers(min_value=0, max_value=10**6))
    def test_sqrt_mod_small_prime(self, a):
        p = 1000003  # p === 3 (mod 4)
        r = sqrt_mod_prime(a, p)
        if r is not None:
            assert r * r % p == a % p

    def test_sqrt_mod_1mod4_prime(self):
        p = 1000033  # p === 1 (mod 4): exercises full Tonelli-Shanks
        count = 0
        for a in range(2, 60):
            r = sqrt_mod_prime(a, p)
            if r is not None:
                assert r * r % p == a
                count += 1
        assert count > 10  # about half should be residues

    def test_inverse_mod(self):
        assert inverse_mod(3, 7) == 5
        assert inverse_mod(10, P127) * 10 % P127 == 1
        with pytest.raises(ZeroDivisionError):
            inverse_mod(0, 7)
        with pytest.raises(ZeroDivisionError):
            inverse_mod(6, 9)


class TestLattice:
    def test_lll_small_known(self):
        # Classic example: the reduced basis of this lattice is short.
        basis = [[1, 1, 1], [-1, 0, 2], [3, 5, 6]]
        red = lll_reduce(basis)
        assert max_abs_entry(red) <= 3

    def test_lll_preserves_lattice_membership(self):
        n = 10007
        lam = 1234
        basis = [[n, 0], [-lam, 1]]
        red = lll_reduce(basis)
        for row in red:
            assert (row[0] + row[1] * lam) % n == 0

    def test_lll_output_short_for_glv_like_lattice(self):
        n = (1 << 100) + 277  # arbitrary large modulus
        lam = 0x1234567890ABCDEF1234
        basis = [[n, 0], [-lam, 1]]
        red = lll_reduce(basis)
        # 2-dim lattice of determinant n: expect entries around sqrt(n).
        assert max_abs_entry(red) < 1 << 54

    def test_babai_exact_on_lattice_point(self):
        basis = [[7, 1], [2, 9]]
        target = [3 * 7 + 5 * 2, 3 * 1 + 5 * 9]
        assert babai_round(basis, target) == target

    def test_babai_residual_small(self):
        basis = lll_reduce([[10007, 0], [-331, 1]])
        target = [5000, 0]
        close = babai_round(basis, target)
        residual = [t - c for t, c in zip(target, close)]
        bound = sum(abs(x) for row in basis for x in row)
        assert all(abs(r) <= bound for r in residual)

    def test_babai_rank_deficient_raises(self):
        with pytest.raises(ValueError):
            babai_round([[1, 2], [2, 4]], [1, 1])

    def test_dot(self):
        assert dot([1, 2, 3], [4, 5, 6]) == 32


ZERO = (0, 0)
ONE = (1, 0)


def _rand_poly(rng, deg):
    return poly_trim(
        [(rng.randrange(P127), rng.randrange(P127)) for _ in range(deg)] + [ONE]
    )


class TestPoly:
    def test_trim(self):
        assert poly_trim([ONE, ZERO, ZERO]) == [ONE]
        assert poly_trim([ZERO]) == []

    def test_divmod_roundtrip(self):
        rng = random.Random(3)
        f = _rand_poly(rng, 7)
        g = _rand_poly(rng, 3)
        q, r = poly_divmod(f, g)
        assert poly_add(poly_mul(q, g), r) == f
        assert poly_deg(r) < poly_deg(g)

    def test_gcd_of_products(self):
        rng = random.Random(4)
        a, b, c = _rand_poly(rng, 2), _rand_poly(rng, 2), _rand_poly(rng, 2)
        g = poly_gcd(poly_mul(a, c), poly_mul(b, c))
        # c divides the gcd
        _, rem = poly_divmod(g, poly_monic(c))
        assert rem == []

    def test_eval_horner(self):
        # f = x^2 + 2x + 3 at x = 5 -> 38
        f = [(3, 0), (2, 0), ONE]
        assert poly_eval(f, (5, 0)) == (38, 0)

    def test_derivative(self):
        # d/dx (x^3 + 4x) = 3x^2 + 4
        f = [ZERO, (4, 0), ZERO, ONE]
        assert poly_derivative(f) == [(4, 0), ZERO, (3, 0)]

    def test_from_roots_and_back(self):
        rng = random.Random(5)
        roots = [(rng.randrange(P127), rng.randrange(P127)) for _ in range(4)]
        f = poly_from_roots(roots)
        found = poly_roots(f)
        assert sorted(found) == sorted(set(roots))

    def test_roots_with_multiplicity_found_once(self):
        r = (7, 9)
        f = poly_from_roots([r, r, r])
        assert poly_roots(f) == [r]

    def test_roots_of_irreducible_quadratic_empty(self):
        # x^2 - xi with xi a non-square has no roots in F_{p^2}.
        from repro.field.tower import XI
        from repro.field.fp2 import fp2_neg

        f = [fp2_neg(XI), ZERO, ONE]
        assert poly_roots(f) == []

    def test_pow_mod(self):
        f = [(1, 0), (1, 0)]  # x + 1
        mod = [(1, 0), ZERO, ONE]  # x^2 + 1
        # (x+1)^2 = x^2 + 2x + 1 === 2x (mod x^2+1)
        assert poly_pow_mod(f, 2, mod) == [ZERO, (2, 0)]

    def test_quadratic_part_and_split(self):
        # Build (x - r1)(x - r2) * (irreducible quadratic) * ...
        from repro.field.tower import XI
        from repro.field.fp2 import fp2_neg

        lin = poly_from_roots([(3, 4), (5, 6)])
        irr1 = [fp2_neg(XI), ZERO, ONE]  # x^2 - xi, irreducible
        f = poly_mul(lin, irr1)
        qp = poly_quadratic_part(f)
        # The quadratic part contains everything here (all roots in Fp4).
        assert poly_deg(qp) == 4
        quads = poly_split_quadratics(poly_divmod(qp, lin)[0])
        assert len(quads) == 1
        assert poly_monic(irr1) == quads[0]


class TestLLLFuzz:
    """Hypothesis fuzzing: LLL output generates the same lattice."""

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=25, deadline=None)
    def test_lll_preserves_determinant_2d(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(10**6, 10**9)
        lam = rng.randrange(1, n)
        basis = [[n, 0], [-lam, 1]]
        red = lll_reduce(basis)
        # |det| is a lattice invariant.
        det = red[0][0] * red[1][1] - red[0][1] * red[1][0]
        assert abs(det) == n
        # Rows still lie in the lattice.
        for row in red:
            assert (row[0] + row[1] * lam) % n == 0

    @given(st.integers(min_value=0, max_value=2**32))
    @example(8563)  # size reduction once left a row with |mu| ~ 2e6 here
    @settings(max_examples=15, deadline=None)
    def test_lll_4d_glv_shape(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(10**11, 10**13)
        l1, l2 = rng.randrange(1, n), rng.randrange(1, n)
        l3 = l1 * l2 % n
        basis = [
            [n, 0, 0, 0],
            [-l1, 1, 0, 0],
            [-l2, 0, 1, 0],
            [-l3, 0, 0, 1],
        ]
        red = lll_reduce(basis)
        lams = (1, l1, l2, l3)
        for row in red:
            assert sum(v * l for v, l in zip(row, lams)) % n == 0
        # LLL quality: max entry within a (generous) factor of n^(1/4).
        bound = 32 * round(n ** 0.25)
        assert max_abs_entry(red) <= bound

    @given(st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=20, deadline=None)
    def test_babai_residual_bounded_fuzz(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(10**8, 10**10)
        lam = rng.randrange(1, n)
        red = lll_reduce([[n, 0], [-lam, 1]])
        target = [rng.randrange(n), 0]
        close = babai_round(red, target)
        bound = sum(abs(x) for row in red for x in row)
        assert all(abs(t - c) <= bound for t, c in zip(target, close))
        # closest vector is in the lattice
        assert (close[0] + close[1] * lam) % n == 0
