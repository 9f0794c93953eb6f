"""The decomposer's integer rounding equals rational Babai rounding.

``FourQDecomposer.closest_vector`` rounds with precomputed integer
numerators of the first row of B^-1 over den = N; ``babai_round``
solves x * B = (k, 0, 0, 0) over the rationals and rounds each
``Fraction``.  N is odd, so no coefficient is ever half-way and the two
must agree on every integer k: k >= N, negative k and multiples of N
included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curve.endomorphisms import default_decomposer
from repro.curve.params import SUBGROUP_ORDER_N as N
from repro.nt.lattice import babai_round

targets = st.one_of(
    st.integers(min_value=0, max_value=N - 1),
    st.integers(min_value=N, max_value=2**300),
    st.integers(min_value=-(2**300), max_value=-1),
    st.integers(min_value=-(2**40), max_value=2**40).map(lambda m: m * N),
    st.integers(min_value=-(2**40), max_value=2**40).map(lambda m: m * N + (N - 1) // 2),
)


@given(targets)
@settings(max_examples=200)
def test_integer_rounding_equals_babai_round(k):
    dec = default_decomposer()
    assert dec.closest_vector(k) == babai_round(dec.basis, [k, 0, 0, 0])


def test_multiples_of_n_round_to_the_lattice_point():
    """(m N, 0, 0, 0) lies in the lattice: Babai returns it exactly."""
    dec = default_decomposer()
    for m in (0, 1, -1, 7, -(2**70)):
        assert dec.closest_vector(m * N) == [m * N, 0, 0, 0]
