"""Tests for scalar multiplication: Algorithm 1 and the reference methods."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curve.params import SUBGROUP_ORDER_N
from repro.curve.point import AffinePoint, random_subgroup_point
from repro.curve.scalarmult import (
    build_table,
    fourq_main_loop,
    scalar_mul_always_double_add,
    scalar_mul_double_and_add,
    scalar_mul_fourq,
    scalar_mul_wnaf,
    wnaf_terms,
)
from repro.curve.edwards import point_r1_from_affine
from repro.curve.recoding import recode_glv_sac

scalars = st.integers(min_value=0, max_value=2**256 - 1)


class TestReferenceMethods:
    """The baselines must agree with the affine double-and-add oracle."""

    @given(st.integers(min_value=0, max_value=2**40 - 1))
    @settings(max_examples=8)
    def test_double_and_add_small(self, k):
        g = AffinePoint.generator()
        assert scalar_mul_double_and_add(k, g) == k * g

    def test_wnaf_matches(self, rng):
        g = AffinePoint.generator()
        for width in (2, 3, 4, 5):
            k = rng.randrange(SUBGROUP_ORDER_N)
            assert scalar_mul_wnaf(k, g, width=width) == k * g

    @given(scalars, st.integers(min_value=2, max_value=8))
    @settings(max_examples=200)
    def test_wnaf_terms_are_a_width_w_naf(self, k, width):
        terms = wnaf_terms(k, width)
        assert sum(d << pos for pos, d in terms) == k
        assert all(d % 2 and abs(d) < 1 << (width - 1) for _, d in terms)
        positions = [pos for pos, _ in terms]
        assert all(b - a >= width for a, b in zip(positions, positions[1:]))

    def test_always_add_matches(self, rng):
        g = AffinePoint.generator()
        k = rng.randrange(SUBGROUP_ORDER_N)
        assert scalar_mul_always_double_add(k, g) == k * g

    def test_zero_and_identity(self):
        g = AffinePoint.generator()
        o = AffinePoint.identity()
        for fn in (
            scalar_mul_double_and_add,
            scalar_mul_wnaf,
            scalar_mul_always_double_add,
        ):
            assert fn(0, g) == o
            assert fn(5, o) == o

    def test_negative_scalar(self):
        g = AffinePoint.generator()
        assert scalar_mul_double_and_add(-3, g) == 3 * (-g)


class TestAlgorithm1:
    """The paper's endomorphism-accelerated scalar multiplication."""

    def test_matches_reference_random(self, rng):
        g = AffinePoint.generator()
        for _ in range(3):
            k = rng.randrange(2**256)
            assert scalar_mul_fourq(k, g) == (k % SUBGROUP_ORDER_N) * g

    def test_on_random_subgroup_point(self, rng):
        p = random_subgroup_point(rng)
        k = rng.randrange(2**256)
        assert scalar_mul_fourq(k, p) == (k % SUBGROUP_ORDER_N) * p

    def test_edge_scalars(self):
        g = AffinePoint.generator()
        assert scalar_mul_fourq(0, g) == AffinePoint.identity()
        assert scalar_mul_fourq(1, g) == g
        assert scalar_mul_fourq(2, g) == g + g
        assert scalar_mul_fourq(SUBGROUP_ORDER_N, g) == AffinePoint.identity()
        assert scalar_mul_fourq(SUBGROUP_ORDER_N - 1, g) == -g
        assert scalar_mul_fourq(2**256 - 1, g) == ((2**256 - 1) % SUBGROUP_ORDER_N) * g

    def test_identity_input(self):
        assert scalar_mul_fourq(12345, AffinePoint.identity()).is_identity()

    def test_homomorphic(self, rng):
        g = AffinePoint.generator()
        a = rng.randrange(2**128)
        b = rng.randrange(2**128)
        assert scalar_mul_fourq(a, g) + scalar_mul_fourq(b, g) == scalar_mul_fourq(
            a + b, g
        )

    def test_with_eigenvalue_oracle_endo(self, endo, decomposer, rng):
        """Algorithm 1 with the oracle endomorphisms gives the same result."""
        from repro.curve.endomorphisms import EigenvalueEndomorphisms

        oracle = EigenvalueEndomorphisms(
            lambda_phi=endo.lambda_phi, lambda_psi=endo.lambda_psi
        )
        g = AffinePoint.generator()
        k = rng.randrange(2**200)
        assert scalar_mul_fourq(k, g, endo=oracle, decomposer=decomposer) == (
            k % SUBGROUP_ORDER_N
        ) * g


class TestTable:
    def test_table_entries_correct(self, endo, rng):
        """T[u] = P + u0 phi(P) + u1 psi(P) + u2 psi(phi(P))."""
        p = random_subgroup_point(rng)
        phi_p, psi_p = endo.phi(p), endo.psi(p)
        psiphi_p = endo.psi(phi_p)
        table = build_table(
            point_r1_from_affine(p.x, p.y),
            point_r1_from_affine(phi_p.x, phi_p.y),
            point_r1_from_affine(psi_p.x, psi_p.y),
            point_r1_from_affine(psiphi_p.x, psiphi_p.y),
        )
        from repro.field.fp2 import fp2_inv, fp2_mul, fp2_sub, fp2_add

        for u in range(8):
            expected = p
            if u & 1:
                expected = expected + phi_p
            if u & 2:
                expected = expected + psi_p
            if u & 4:
                expected = expected + psiphi_p
            # Decode (Y+X, Y-X, 2Z, 2dT) back to affine.
            e = table[u]
            zinv = fp2_inv(e.z2)  # note: 2Z, but ratios cancel
            two_x = fp2_sub(e.yx_plus, e.yx_minus)
            two_y = fp2_add(e.yx_plus, e.yx_minus)
            x = fp2_mul(two_x, zinv)
            y = fp2_mul(two_y, zinv)
            assert AffinePoint(x, y) == expected

    def test_main_loop_matches_decomposed_scalar(self, endo, decomposer, rng):
        """Loop output == [a1]P + [a2]phi(P) + [a3]psi(P) + [a4]psiphi(P)."""
        from repro.curve.edwards import ecc_normalize

        p = random_subgroup_point(rng)
        k = rng.randrange(2**256)
        d = decomposer.decompose(k)
        rec = recode_glv_sac(d.scalars)
        phi_p, psi_p = endo.phi(p), endo.psi(p)
        psiphi_p = endo.psi(phi_p)
        table = build_table(
            point_r1_from_affine(p.x, p.y),
            point_r1_from_affine(phi_p.x, phi_p.y),
            point_r1_from_affine(psi_p.x, psi_p.y),
            point_r1_from_affine(psiphi_p.x, psiphi_p.y),
        )
        q = fourq_main_loop(table, rec)
        x, y = ecc_normalize(q)
        a1, a2, a3, a4 = d.scalars
        expected = a1 * p + a2 * phi_p + a3 * psi_p + a4 * psiphi_p
        assert AffinePoint(x, y) == expected
