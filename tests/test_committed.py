"""The committed curve constants: no drift from the derivation, no tamper.

``repro.curve.derived_constants`` is generated by ``python -m repro
derive --write``.  These tests re-derive from first principles and
demand the committed file be byte-identical to the generator's output,
and perturb every stored field in turn to show the load check rejects
it, falls back to the derivation, and counts the fallback.
"""

import logging
import types

import pytest

from repro.curve import committed, derived_constants
from repro.curve.committed import (
    COMMITTED_PATH,
    FIELDS,
    curve_constants,
    derive_constants,
    load_constants,
    render_constants,
    verify_constants,
)
from repro.curve.decompose import FourQDecomposer
from repro.curve.endomaps import compile_endomorphisms
from repro.curve.endomorphisms import default_decomposer, default_endomorphisms
from repro.field.fp import P127
from repro.obs import get_registry
from tests.metrics_util import count

FALLBACKS = "repro_curve_constants_fallbacks_total"


def _source(**overrides):
    """The committed fields as a namespace, with some replaced."""
    values = {name: getattr(derived_constants, name) for name in FIELDS}
    values.update(overrides)
    return types.SimpleNamespace(**values)


def _bump(value, modulus=0):
    """Add 1 to the first integer in ``value`` (mod ``modulus`` if set)."""
    if isinstance(value, int):
        return (value + 1) % modulus if modulus else value + 1
    return (_bump(value[0], modulus),) + tuple(value[1:])


def _perturbations():
    """(label, field, perturbed value): every stored field in turn."""
    out = []
    for name in ("TAU_KERNEL_X", "TAU_DUAL_KERNEL_X", "DELTA_KERNEL_X",
                 "U_TAU_DUAL", "U_DELTA", "U_VELU5"):
        out.append((name, name, _bump(getattr(derived_constants, name), P127)))
    pair = derived_constants.VELU5_KERNEL_XS
    for i in range(2):
        bumped = tuple(_bump(x, P127) if j == i else x for j, x in enumerate(pair))
        out.append((f"VELU5_KERNEL_XS[{i}]", "VELU5_KERNEL_XS", bumped))
    for name in ("LAMBDA_PHI", "LAMBDA_PSI"):
        out.append((name, name, _bump(getattr(derived_constants, name))))
    basis = derived_constants.BASIS
    for i in range(4):
        rows = tuple(_bump(row) if j == i else row for j, row in enumerate(basis))
        out.append((f"BASIS[{i}]", "BASIS", rows))
    return out


PERTURBATIONS = _perturbations()


class TestDrift:
    def test_committed_module_is_the_generator_output(self):
        """Re-derive from scratch: the committed file must not drift."""
        derived = derive_constants()
        assert derived.source == "derived"
        text = render_constants(derived)
        assert text == COMMITTED_PATH.read_text(), (
            "committed curve constants drifted from the derivation; "
            "regenerate with `python -m repro derive --write`"
        )

    def test_loaded_equals_derived(self, endo):
        loaded = curve_constants()
        assert loaded.source == "committed"
        assert loaded.endo == endo
        assert loaded.compiled == compile_endomorphisms(endo)
        assert loaded.decomposer.basis == derive_constants().decomposer.basis


class TestDefaultsLoadTheCommittedModule:
    def test_defaults_share_the_loaded_constants(self):
        loaded = curve_constants()
        assert default_decomposer() is loaded.decomposer
        assert default_endomorphisms() is loaded.endo

    def test_committed_module_passes_without_fallback(self):
        before = count(get_registry(), FALLBACKS)
        assert load_constants(derived_constants).source == "committed"
        assert count(get_registry(), FALLBACKS) == before


class TestTamper:
    @pytest.mark.parametrize(
        "label,field,value", PERTURBATIONS, ids=[p[0] for p in PERTURBATIONS]
    )
    def test_perturbed_field_is_rejected_and_the_fallback_counted(
        self, label, field, value, caplog
    ):
        source = _source(**{field: value})
        with pytest.raises(Exception):
            verify_constants(source)
        before = count(get_registry(), FALLBACKS)
        with caplog.at_level(logging.WARNING, logger=committed.__name__):
            loaded = load_constants(source)
        assert loaded.source == "derived"
        assert loaded is derive_constants()
        assert count(get_registry(), FALLBACKS) == before + 1
        warnings = [r for r in caplog.records if r.name == committed.__name__]
        assert len(warnings) == 1 and "rejected" in warnings[0].getMessage()

    def test_one_flipped_hex_digit_in_the_module_text_is_rejected(self):
        text = COMMITTED_PATH.read_text()
        at = text.index("U_VELU5 = (0x") + len("U_VELU5 = (0x")
        digit = "1" if text[at] != "1" else "2"
        namespace = {}
        exec(compile(text[:at] + digit + text[at + 1:], "tampered", "exec"), namespace)
        before = count(get_registry(), FALLBACKS)
        assert load_constants(types.SimpleNamespace(**namespace)).source == "derived"
        assert count(get_registry(), FALLBACKS) == before + 1

    def test_decomposer_wider_than_64_bits_is_rejected(self, caplog):
        """A basis of the right lattice that is not reduced decomposes
        correctly but too wide for the 65-digit recoding."""
        rows = [list(r) for r in derived_constants.BASIS]
        rows[0] = [a + 4 * b for a, b in zip(rows[0], rows[1])]
        source = _source(BASIS=tuple(map(tuple, rows)))
        with pytest.raises(ValueError, match="64"):
            verify_constants(source)
        before = count(get_registry(), FALLBACKS)
        with caplog.at_level(logging.WARNING, logger=committed.__name__):
            loaded = load_constants(source)
        assert loaded is derive_constants()
        assert loaded.decomposer.max_scalar_bits == 64
        assert count(get_registry(), FALLBACKS) == before + 1
        warnings = [r for r in caplog.records if r.name == committed.__name__]
        assert len(warnings) == 1 and "66 bits wide" in warnings[0].getMessage()

    def test_non_canonical_coordinate_is_rejected(self):
        x = derived_constants.TAU_KERNEL_X
        with pytest.raises(ValueError, match="non-canonical"):
            verify_constants(_source(TAU_KERNEL_X=(x[0] + P127, x[1])))


class TestGivenBasis:
    def test_given_basis_skips_lll_and_matches_it(self, endo):
        lams = dict(lambda_phi=endo.lambda_phi, lambda_psi=endo.lambda_psi)
        given = FourQDecomposer(basis=derived_constants.BASIS, **lams)
        reduced = FourQDecomposer(**lams)
        assert given.basis == reduced.basis
        assert given.max_scalar_bits == reduced.max_scalar_bits == 64
        k = 0xC0FFEE << 200
        assert given.decompose(k) == reduced.decompose(k)

    def test_sublattice_basis_is_rejected(self, endo):
        """Rows in the lattice but spanning index 2N: |det| != N."""
        rows = [list(r) for r in derived_constants.BASIS]
        rows[0] = [2 * v for v in rows[0]]
        with pytest.raises(ValueError, match="det"):
            FourQDecomposer(lambda_phi=endo.lambda_phi,
                            lambda_psi=endo.lambda_psi, basis=rows)
