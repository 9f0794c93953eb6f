"""Tests for multi-scalar multiplication and batch Schnorr verification.

Covers the interleaved wNAF MSM against double-and-add and the
Pippenger reference, the soundness preconditions of randomized batch
verification (order-N subgroup membership, on-curve validation,
128-bit ``secrets.SystemRandom`` weights, the sign of the negated
points), and the differential batch ≡ per-item property under
``PYTEST_SEED``.
"""

import inspect
import os
import random
import subprocess
import sys
import zlib
from dataclasses import replace

import pytest

from repro.curve import AffinePoint, SUBGROUP_ORDER_N
from repro.curve.multiscalar import (
    GENERATOR_WNAF_WIDTH,
    MSM_SCALAR_BITS,
    PIPPENGER_WINDOW_MAX,
    PIPPENGER_WINDOW_MIN,
    WNAF_WIDTH_MAX,
    WNAF_WIDTH_MIN,
    batch_verify_schnorr,
    in_order_n_subgroup,
    multi_scalar_mul,
    multi_scalar_mul_pippenger,
    pippenger_cost_model,
    pippenger_window_bits,
    validate_verify_item,
    wnaf_msm_cost_model,
    wnaf_width,
)
from repro.curve.params import PRIME_P
from repro.curve.point import random_point, random_subgroup_point
from repro.dsa import fourq_schnorr

SEED = int(os.environ.get("PYTEST_SEED", "0x4D534D"), 0)


def _rng(tag: str) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


def _signed(rng, n, signers=4):
    kps = [fourq_schnorr.generate_keypair(rng=rng) for _ in range(signers)]
    return [
        (
            kps[i % signers].public,
            b"batch item %d" % i,
            fourq_schnorr.sign(kps[i % signers], b"batch item %d" % i),
        )
        for i in range(n)
    ]


class TestMultiScalar:
    def test_matches_reference(self, rng):
        pts = [random_subgroup_point(rng) for _ in range(5)]
        ks = [rng.randrange(2**256) for _ in range(5)]
        got = multi_scalar_mul(ks, pts)
        exp = AffinePoint.identity()
        for k, p in zip(ks, pts):
            exp = exp + (k % SUBGROUP_ORDER_N) * p
        assert got == exp

    def test_single_point_degenerates_to_scalar_mul(self, rng):
        p = random_subgroup_point(rng)
        k = rng.randrange(2**256)
        assert multi_scalar_mul([k], [p]) == (k % SUBGROUP_ORDER_N) * p

    def test_empty_batch(self):
        assert multi_scalar_mul([], []) == AffinePoint.identity()

    def test_identity_points_skipped(self, rng):
        p = random_subgroup_point(rng)
        got = multi_scalar_mul([7, 5], [AffinePoint.identity(), p])
        assert got == 5 * p

    def test_zero_scalars(self, rng):
        p = random_subgroup_point(rng)
        q = random_subgroup_point(rng)
        assert multi_scalar_mul([0, 0], [p, q]) == AffinePoint.identity()

    def test_cancellation(self, rng):
        p = random_subgroup_point(rng)
        got = multi_scalar_mul([3, SUBGROUP_ORDER_N - 3], [p, p])
        assert got.is_identity()

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            multi_scalar_mul([1, 2], [random_subgroup_point(rng)])

    def test_larger_batch(self, rng):
        n = 8
        pts = [random_subgroup_point(rng) for _ in range(n)]
        ks = [rng.randrange(SUBGROUP_ORDER_N) for _ in range(n)]
        got = multi_scalar_mul(ks, pts)
        exp = AffinePoint.identity()
        for k, p in zip(ks, pts):
            exp = exp + k * p
        assert got == exp


class TestBatchVerify:
    @pytest.fixture(scope="class")
    def signed_batch(self):
        rng = random.Random(0xBA7C)
        items = []
        for i in range(4):
            kp = fourq_schnorr.generate_keypair(rng=rng)
            msg = f"CAM vehicle={i}".encode()
            items.append((kp.public, msg, fourq_schnorr.sign(kp, msg)))
        return items

    def test_valid_batch_accepts(self, signed_batch, rng):
        assert batch_verify_schnorr(signed_batch, rng=rng)

    def test_empty_batch_accepts(self, rng):
        assert batch_verify_schnorr([], rng=rng)

    def test_single_item(self, signed_batch, rng):
        assert batch_verify_schnorr(signed_batch[:1], rng=rng)

    def test_forged_message_rejected(self, signed_batch, rng):
        bad = list(signed_batch)
        pub, _, sig = bad[2]
        bad[2] = (pub, b"evil payload", sig)
        assert not batch_verify_schnorr(bad, rng=rng)

    def test_tampered_s_rejected(self, signed_batch, rng):
        bad = list(signed_batch)
        pub, msg, sig = bad[0]
        bad[0] = (pub, msg, replace(sig, s=(sig.s * 2) % SUBGROUP_ORDER_N))
        assert not batch_verify_schnorr(bad, rng=rng)

    def test_swapped_keys_rejected(self, signed_batch, rng):
        bad = list(signed_batch)
        (p0, m0, s0), (p1, m1, s1) = bad[0], bad[1]
        bad[0], bad[1] = (p1, m0, s0), (p0, m1, s1)
        assert not batch_verify_schnorr(bad, rng=rng)

    def test_out_of_range_s_rejected(self, signed_batch, rng):
        bad = list(signed_batch)
        pub, msg, sig = bad[0]
        bad[0] = (pub, msg, replace(sig, s=0))
        assert not batch_verify_schnorr(bad, rng=rng)

    def test_invalid_commitment_rejected(self, signed_batch, rng):
        bad = list(signed_batch)
        pub, msg, sig = bad[0]
        bad[0] = (pub, msg, replace(sig, commit_x=(1, 1)))
        assert not batch_verify_schnorr(bad, rng=rng)


def _double_and_add_sum(ks, pts):
    """The oracle: affine double-and-add per pair, then summed."""
    total = AffinePoint.identity()
    for k, p in zip(ks, pts):
        total = total + (k % SUBGROUP_ORDER_N) * p
    return total


class TestMethodEquivalence:
    """The wNAF MSM equals double-and-add and the Pippenger reference.

    The sizes cross every window-width step of the bucket reference
    (c = 2, 3, 4 at n = 2, 8, 16) and both per-point wNAF widths.
    """

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 8, 9, 16])
    def test_methods_agree_across_crossover(self, n):
        rng = _rng(f"methods-{n}")
        pts = [random_subgroup_point(rng) for _ in range(n)]
        ks = [rng.randrange(2**256) for _ in range(n)]
        # Negative scalars, k = 0, k = N, a 2^256 - 1 and a short one.
        specials = [-rng.randrange(2**256), 0, SUBGROUP_ORDER_N,
                    2**256 - 1, rng.randrange(2**128)]
        for i, k in enumerate(specials[:n]):
            ks[i] = k
        got = multi_scalar_mul(ks, pts)
        assert got == multi_scalar_mul_pippenger(ks, pts)
        assert got == _double_and_add_sum(ks, pts)

    def test_methods_agree_on_degenerate_pairs(self):
        rng = _rng("degenerate")
        p = random_subgroup_point(rng)
        q = random_subgroup_point(rng)
        k = rng.randrange(1, SUBGROUP_ORDER_N)
        cases = [
            # Every scalar vanishes mod N.
            ([0] * 9, [random_subgroup_point(rng) for _ in range(9)]),
            # Zero, N and an identity point among live pairs.
            ([7, 0, SUBGROUP_ORDER_N, 5],
             [p, q, random_subgroup_point(rng), AffinePoint.identity()]),
            # P and -P cancel to the identity.
            ([k, k], [p, -p]),
            ([k, k, 3], [p, -p, q]),
            ([3, SUBGROUP_ORDER_N - 3] + [0] * 8, [p, p] + [q] * 8),
            # Repeated points and scalars: equal table entries land on
            # the accumulator, so the addition meets its doubling case.
            ([k, k, k], [p, p, p]),
            ([k, -k, 2 * k], [q, q, q]),
        ]
        for ks, pts in cases:
            got = multi_scalar_mul(ks, pts)
            assert got == multi_scalar_mul_pippenger(ks, pts)
            assert got == _double_and_add_sum(ks, pts)

    def test_zero_and_identity_padding_is_skipped(self):
        rng = _rng("live-pairs")
        p = random_subgroup_point(rng)
        ks = [5] + [0] * 12 + [9]
        pts = [p] + [random_subgroup_point(rng) for _ in range(12)]
        pts.append(AffinePoint.identity())
        assert multi_scalar_mul(ks, pts) == 5 * p

    def test_cost_model_and_window_sane(self):
        assert pippenger_window_bits(2) >= 2
        assert pippenger_window_bits(10**9) <= 8
        m_small, a_small = pippenger_cost_model(8)
        m_large, a_large = pippenger_cost_model(256)
        assert 0 < m_small < m_large
        assert 0 < a_small < a_large


class TestTunables:
    """The module-level performance knobs are pinned, not folklore.

    The generator width, the per-point wNAF width range, the Pippenger
    window clamp and ``MSM_SCALAR_BITS`` are the constants
    ``repro.curve.multiscalar`` exports as documented tunables.  These
    tests pin their current values and the invariants the rest of the
    stack relies on, so changing any of them is a deliberate, reviewed
    act (re-run ``benchmarks/bench_msm.py`` first, then update the pin
    here).
    """

    def test_wnaf_widths_follow_the_cost_model(self):
        assert (WNAF_WIDTH_MIN, WNAF_WIDTH_MAX) == (2, 6)
        assert GENERATOR_WNAF_WIDTH == 8
        # The batch weights and the full-length scalars.
        assert wnaf_width(128) == 4
        assert wnaf_width(MSM_SCALAR_BITS) == 5
        widths = [wnaf_width(b) for b in range(0, 1000)]
        assert all(a <= b for a, b in zip(widths, widths[1:]))
        assert widths[0] == WNAF_WIDTH_MIN

    def test_verify_cost_per_signature(self):
        """The deterministic figures docs/derivation.md quotes.

        Multiplier ops per verified signature in an 8-signature batch:
        the 17-point 246-bit bucket MSM against 8 weight columns of 128
        bits, 8 of 246 and the cached-table generator column.
        """
        before = pippenger_cost_model(17)[0] / 8
        after = wnaf_msm_cost_model([128] * 8 + [246] * 8, 246) / 8
        assert round(before) == 3963
        assert round(after) == 897
        # A per-point table costs, a cached one does not.
        assert wnaf_msm_cost_model([246]) > wnaf_msm_cost_model([], 246)
        assert wnaf_msm_cost_model([]) == 0

    def test_generator_table_is_built_lazily(self):
        code = (
            "import repro.curve.multiscalar as m\n"
            "assert m._generator_table.cache_info().currsize == 0\n"
            "assert len(m._generator_table()) == 1 << (m.GENERATOR_WNAF_WIDTH - 2) == 64\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)

    def test_pippenger_cost_model_has_economies_of_scale(self):
        # Per-point cost falls as each extra point splits the fixed
        # 246-doubling chain and the bucket folds.  Within a window
        # width it falls strictly (the sawtooth at width steps — n = 8,
        # 16, ... — is the 2^c fold growing ahead of the batch), and
        # doubling the batch always wins outright.
        per_point = {n: pippenger_cost_model(n)[0] / n for n in range(1, 65)}
        for n in range(1, 64):
            if pippenger_window_bits(n) == pippenger_window_bits(n + 1):
                assert per_point[n] > per_point[n + 1], (
                    "pippenger_cost_model lost its economies of scale", n
                )
        for n in range(1, 33):
            assert per_point[2 * n] < per_point[n], n

    def test_window_bits_respects_the_documented_clamp(self):
        assert (PIPPENGER_WINDOW_MIN, PIPPENGER_WINDOW_MAX) == (2, 8), (
            "window clamp retuned — re-run benchmarks/bench_msm.py and "
            "update this pin"
        )
        widths = [pippenger_window_bits(n) for n in range(1, 5000)]
        assert all(
            PIPPENGER_WINDOW_MIN <= w <= PIPPENGER_WINDOW_MAX for w in widths
        )
        # Monotone non-decreasing: more points never shrink the window.
        assert all(a <= b for a, b in zip(widths, widths[1:]))
        assert pippenger_window_bits(1) == PIPPENGER_WINDOW_MIN
        assert pippenger_window_bits(10**9) == PIPPENGER_WINDOW_MAX

    def test_scalar_bits_matches_the_subgroup_order(self):
        assert MSM_SCALAR_BITS == 246
        # N is a 246-bit prime: every reduced scalar fits, and the
        # window heuristic's bit budget is not an underestimate.
        assert SUBGROUP_ORDER_N.bit_length() == MSM_SCALAR_BITS
        # The cost model defaults to the same budget: passing it
        # explicitly must be a no-op.
        assert pippenger_cost_model(16) == pippenger_cost_model(
            16, bits=MSM_SCALAR_BITS
        )


class TestSubgroupValidation:
    """The soundness precondition: every point in the order-N subgroup."""

    def test_generator_and_identity_are_members(self):
        assert in_order_n_subgroup(AffinePoint.generator())
        assert in_order_n_subgroup(AffinePoint.identity())

    def test_random_cofactor_point_is_not_member(self):
        # A uniformly random curve point carries a 392-torsion component
        # with probability 1 - 1/392; the fixed seed pins a witness.
        assert not in_order_n_subgroup(random_point(random.Random(0xC0F)))

    def test_low_order_point_is_not_member(self):
        # (0, -1) has order 2: the classic small-subgroup confinement
        # point that a cofactor-blind batch verifier would accept.
        low = AffinePoint((0, 0), (PRIME_P - 1, 0))
        assert not in_order_n_subgroup(low)

    def test_validate_rejects_off_subgroup_public(self):
        rng = _rng("off-subgroup")
        (public, msg, sig), = _signed(rng, 1)
        assert validate_verify_item(public, sig) is not None
        assert validate_verify_item(random_point(rng), sig) is None

    def test_validate_rejects_malformed(self):
        rng = _rng("malformed")
        (public, msg, sig), = _signed(rng, 1)
        assert validate_verify_item(None, sig) is None
        assert validate_verify_item(public, None) is None
        assert validate_verify_item(public, replace(sig, s=0)) is None
        assert validate_verify_item(
            public, replace(sig, s=SUBGROUP_ORDER_N)
        ) is None
        assert validate_verify_item(public, replace(sig, commit_x=(1, 1))) is None

    def test_batch_rejects_off_subgroup_public(self):
        rng = _rng("batch-subgroup")
        items = _signed(rng, 3)
        _, msg, sig = items[1]
        items[1] = (random_point(rng), msg, sig)
        assert not batch_verify_schnorr(items, rng=rng)

    def test_batch_rejects_low_order_public(self):
        rng = _rng("batch-low-order")
        items = _signed(rng, 2)
        _, msg, sig = items[0]
        items[0] = (AffinePoint((0, 0), (PRIME_P - 1, 0)), msg, sig)
        assert not batch_verify_schnorr(items, rng=rng)


class TestBatchSoundness:
    def test_forged_item_hidden_in_64_always_rejected(self):
        rng = _rng("forged-64")
        items = _signed(rng, 64)
        public, _, sig = items[37]
        items[37] = (public, b"forged payload", sig)
        # One shot is sound with probability 1 - 2^-128 already; three
        # independently weighted runs guard the test against a weight
        # -generation bug that a single draw could mask.
        for trial in range(3):
            assert not batch_verify_schnorr(items, rng=_rng(f"w{trial}"))

    def test_differential_batch_matches_per_item(self):
        """Randomized mixes: the batch verdict is the AND of per-item."""
        rng = _rng("differential")
        for _ in range(4):
            items = _signed(rng, rng.randrange(1, 7))
            if rng.random() < 0.5:  # sometimes plant a forgery
                i = rng.randrange(len(items))
                public, _, sig = items[i]
                items[i] = (public, b"tampered", sig)
            expected = all(
                fourq_schnorr.verify(pub, msg, sig) for pub, msg, sig in items
            )
            assert batch_verify_schnorr(items, rng=rng) is expected

    def test_default_weights_come_from_system_random(self):
        """Regression pin for the weak-RNG fix: with no injected rng the
        weights must come from the OS CSPRNG, not ``random``."""
        source = inspect.getsource(batch_verify_schnorr)
        assert "SystemRandom" in source
        sig = inspect.signature(batch_verify_schnorr)
        assert sig.parameters["rng"].default is None


def _sign_with_flipped_commitment(kp, message, rng):
    """A signature on -R that a verifier using +R would accept.

    With nonce k and R = [k]G it announces the commitment -R and sets
    s = k + e d for e = H(-R, Q, m), so [s]G = -(-R) + [e]Q: exactly
    the equation of a verifier whose commitment term has the wrong
    sign.  -R is in the subgroup, so membership checks pass it.
    """
    k = rng.randrange(1, SUBGROUP_ORDER_N)
    flipped = -(k * AffinePoint.generator())
    e = fourq_schnorr._challenge(flipped, kp.public, message)
    return fourq_schnorr.SchnorrSignature(
        commit_x=flipped.x, commit_y=flipped.y,
        s=(k + e * kp.private) % SUBGROUP_ORDER_N,
    )


class TestSignErrors:
    """The batch equation's signs: commitments and keys enter negated."""

    def test_flipped_commitment_rejected(self):
        rng = _rng("flipped-commit")
        kp = fourq_schnorr.generate_keypair(rng=rng)
        sig = _sign_with_flipped_commitment(kp, b"flipped", rng)
        assert in_order_n_subgroup(AffinePoint(sig.commit_x, sig.commit_y))
        assert not fourq_schnorr.verify(kp.public, b"flipped", sig)
        assert not batch_verify_schnorr([(kp.public, b"flipped", sig)], rng=rng)
        items = _signed(rng, 4)
        assert batch_verify_schnorr(items, rng=rng)
        items[2] = (kp.public, b"flipped", sig)
        assert not batch_verify_schnorr(items, rng=rng)

    def test_swapped_commitments_rejected(self):
        rng = _rng("swapped-commits")
        items = _signed(rng, 4)
        assert batch_verify_schnorr(items, rng=rng)
        (p0, m0, s0), (p1, m1, s1) = items[0], items[1]
        items[0] = (p0, m0, replace(s0, commit_x=s1.commit_x, commit_y=s1.commit_y))
        items[1] = (p1, m1, replace(s1, commit_x=s0.commit_x, commit_y=s0.commit_y))
        assert not batch_verify_schnorr(items, rng=rng)

    def test_default_weights_are_128_bit_system_random(self, monkeypatch):
        import repro.curve.multiscalar as msm

        drawn = []

        class Spy(msm.secrets.SystemRandom):
            def getrandbits(self, k):
                drawn.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(msm.secrets, "SystemRandom", Spy)
        items = _signed(_rng("weights"), 3)
        assert batch_verify_schnorr(items)
        assert len(drawn) == len(items)
        assert all(k >= 128 for k in drawn)
