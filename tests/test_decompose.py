"""Tests for the 4-dimensional scalar decomposition."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curve.decompose import (
    FourQDecomposer,
    phi_eigenvalue_candidates,
    psi_eigenvalue_candidates,
)
from repro.curve.endomorphisms import default_decomposer
from repro.curve.params import SUBGROUP_ORDER_N

scalars256 = st.integers(min_value=0, max_value=2**256 - 1)


class TestEigenvalueCandidates:
    def test_phi_candidates_square_to_minus_5(self):
        for r in phi_eigenvalue_candidates():
            assert r * r % SUBGROUP_ORDER_N == (-5) % SUBGROUP_ORDER_N

    def test_psi_candidates_square_to_2(self):
        for r in psi_eigenvalue_candidates():
            assert r * r % SUBGROUP_ORDER_N == 2

    def test_candidates_are_negatives(self):
        a, b = phi_eigenvalue_candidates()
        assert (a + b) % SUBGROUP_ORDER_N == 0


class TestDecomposerSetup:
    def test_default_construction(self, decomposer):
        """LLL from the derived eigenvalues gives the 64-bit width."""
        assert decomposer.max_scalar_bits == 64

    def test_eigenvalues_are_required(self):
        """No default eigenvalues: the old default (roots of -5 and 2)
        built a lattice that does not match the derived phi and psi."""
        with pytest.raises(TypeError):
            FourQDecomposer()

    def test_basis_is_in_lattice(self, decomposer):
        dec = decomposer
        lams = (1, dec.lambda_phi, dec.lambda_psi, dec.lambda_phipsi)
        for row in dec.basis:
            assert sum(v * l for v, l in zip(row, lams)) % dec.n == 0

    def test_basis_entries_are_62_bits(self, decomposer):
        """The paper's '64-bit scalars' rest on a ~N^(1/4) = 2^62 basis."""
        worst = max(abs(x) for row in decomposer.basis for x in row)
        assert worst.bit_length() <= 63


class TestDecompose:
    @pytest.fixture(scope="class")
    def dec(self):
        """The decomposer production uses (matched to the derived maps)."""
        return default_decomposer()

    @given(scalars256)
    @settings(max_examples=50)
    def test_recomposition(self, dec, k):
        d = dec.decompose(k)
        assert dec.recompose(d.scalars) == k % SUBGROUP_ORDER_N

    @given(scalars256)
    @settings(max_examples=50)
    def test_width_positivity_parity(self, dec, k):
        d = dec.decompose(k)
        a1, a2, a3, a4 = d.scalars
        assert a1 % 2 == 1
        for a in d.scalars:
            assert a > 0
            assert a.bit_length() <= dec.max_scalar_bits

    def test_paper_width_claim(self, dec):
        """Sub-scalars are 64-bit, exactly as the paper states."""
        assert dec.max_scalar_bits == 64

    def test_zero_scalar(self, dec):
        d = dec.decompose(0)
        assert dec.recompose(d.scalars) == 0
        assert all(a > 0 for a in d.scalars)  # offsets keep positivity

    def test_scalar_equal_n(self, dec):
        d = dec.decompose(SUBGROUP_ORDER_N)
        assert dec.recompose(d.scalars) == 0

    def test_max_bits_property(self, dec):
        d = dec.decompose(12345)
        assert d.max_bits == max(s.bit_length() for s in d.scalars)

    def test_iteration_protocol(self, dec):
        d = dec.decompose(99)
        assert tuple(d) == d.scalars

    def test_deterministic(self, dec):
        assert dec.decompose(777).scalars == dec.decompose(777).scalars

    def test_matches_derived_eigenvalues(self, endo, decomposer):
        """Decomposer built from the derived endomorphism eigenvalues."""
        k = 0xDEADBEEF << 200
        d = decomposer.decompose(k)
        lams = (1, endo.lambda_phi, endo.lambda_psi, endo.lambda_phipsi)
        total = sum(a * l for a, l in zip(d.scalars, lams))
        assert total % SUBGROUP_ORDER_N == k % SUBGROUP_ORDER_N


class TestEigenvalueSignChoices:
    """All four (lambda_phi, lambda_psi) sign combinations yield valid
    decomposers — the lattice is short for each conjugate pair."""

    def test_all_sign_combinations(self):
        from repro.curve.decompose import (
            phi_eigenvalue_candidates,
            psi_eigenvalue_candidates,
        )

        k = 0xFEE1 << 230
        for lp in phi_eigenvalue_candidates():
            for ls in psi_eigenvalue_candidates():
                dec = FourQDecomposer(lambda_phi=lp, lambda_psi=ls)
                assert dec.max_scalar_bits <= 66
                d = dec.decompose(k)
                assert dec.recompose(d.scalars) == k % SUBGROUP_ORDER_N

    def test_derived_pair_is_one_of_the_candidates(self, endo):
        from repro.curve.decompose import (
            phi_eigenvalue_candidates,
            psi_eigenvalue_candidates,
        )
        from repro.curve.params import SUBGROUP_ORDER_N as N

        # The derived eigenvalues are 2x the sqrt(-5)/sqrt(2) roots
        # (phi, psi have the extra tau/tau-dual factor of 2).
        phi_roots = {2 * r % N for r in phi_eigenvalue_candidates()}
        psi_roots = {2 * r % N for r in psi_eigenvalue_candidates()}
        assert endo.lambda_phi in phi_roots
        assert endo.lambda_psi in psi_roots
