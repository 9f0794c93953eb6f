"""Exhaustive checks of the order-N subgroup test (``in_order_n_subgroup``).

FourQ's group is Z_N + Z_8 + Z_7 + Z_7, so every coset of the order-N
subgroup is ``P + T`` for one of the 392 points T of the cofactor group
C.  The membership test (three reduced Tate pairings against the torsion
basis pinned in ``repro.curve.params``) must accept exactly the T = O
coset, for every T — checked here against a cofactor group built from
torsion sampled independently of the pinned constants, and against the
textbook ``[N]P`` ladder on random points.

The random seed comes from ``PYTEST_SEED`` (default pinned), as in the
differential harness: ``PYTEST_SEED=12345 pytest tests/test_subgroup.py``.
"""

import os
import random
import zlib

import pytest
from hypothesis import given, seed
from hypothesis import strategies as st

from repro.curve.multiscalar import in_order_n_subgroup
from repro.curve.params import SUBGROUP_ORDER_N
from repro.curve.point import AffinePoint, random_point, random_subgroup_point

SEED = int(os.environ.get("PYTEST_SEED", "0x5B6"), 0)


def _rng(tag: str) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


def _torsion_basis(rng):
    """T8 of order 8 and T7, T7' spanning Z_7 x Z_7, from random points."""
    n = SUBGROUP_ORDER_N

    def sample(cofactor_part):
        while True:
            t = (n * cofactor_part) * random_point(rng)
            if not t.is_identity():
                return t

    t8 = sample(49)
    while (4 * t8).is_identity():
        t8 = sample(49)
    t7 = sample(8)
    line = {(j * t7).x for j in range(7)}
    t7b = sample(8)
    while t7b.x in line:
        t7b = sample(8)
    return t8, t7, t7b


@pytest.fixture(scope="module")
def cofactor_group():
    """All 392 points a*T8 + b*T7 + c*T7'; the identity comes first."""
    t8, t7, t7b = _torsion_basis(_rng("torsion"))
    points = []
    a8 = AffinePoint.identity()
    for _ in range(8):
        a7 = a8
        for _ in range(7):
            pt = a7
            for _ in range(7):
                points.append(pt)
                pt = pt + t7b
            a7 = a7 + t7
        a8 = a8 + t8
    return points


def test_cofactor_group_has_392_distinct_points(cofactor_group):
    assert len({(t.x, t.y) for t in cofactor_group}) == 392
    assert cofactor_group[0].is_identity()


@pytest.mark.parametrize("base", range(4))
def test_only_the_subgroup_coset_is_accepted(cofactor_group, base):
    """in_order_n_subgroup(P + T) is (T == O) for all 392 T in C."""
    if base == 0:
        p = AffinePoint.generator()
    else:
        p = random_subgroup_point(_rng(f"base-{base}"))
    wrong = [
        i for i, t in enumerate(cofactor_group)
        if in_order_n_subgroup(p + t) is not t.is_identity()
    ]
    assert wrong == []


def test_pure_torsion_is_rejected(cofactor_group):
    identity, *torsion = cofactor_group
    assert in_order_n_subgroup(identity) is True
    assert [t for t in torsion if in_order_n_subgroup(t)] == []


@seed(SEED)
@given(
    point_seed=st.integers(min_value=0, max_value=2**64),
    clear=st.sampled_from([1, 2, 4, 7, 8, 14, 49, 56, 98, 196, 392]),
)
def test_agrees_with_the_order_n_ladder(point_seed, clear):
    """Random points, part of the cofactor cleared: same verdict as [N]P."""
    p = clear * random_point(random.Random(point_seed))
    assert in_order_n_subgroup(p) is (SUBGROUP_ORDER_N * p).is_identity()
