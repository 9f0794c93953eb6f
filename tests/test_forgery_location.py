"""Forgery location in MSM-mode batch verification.

``verify_msm`` groups resolve through one
:class:`repro.curve.multiscalar.SchnorrBatch`: every item is vetted,
hashed, weighted and tabulated once, the batch's weighted sum T is
computed once, and a nonzero sum is bisected by subtraction (one MSM
for a left half, its sibling's sum as parent - left).  Pinned here:

* per-slot verdicts equal :func:`repro.dsa.fourq_schnorr.verify` for
  batch sizes 1 to 12 with none, one, two or every item forged, the
  forgery at every position, and for a flipped or torsion commitment;
* one forgery in 8 costs exactly 4 MSMs, 8 vets, 8 challenge hashes, 16
  tables (a commitment's and a key's per item) and one simulated
  fallback, wherever it sits;
* a sibling's sum by subtraction is the sum computed directly;
* the weights come from ``secrets.SystemRandom`` by default;
* a deadline expiring mid-bisection fails only the unresolved slots.

``PYTEST_SEED`` varies the keys, the second forgery's position and the
special items' positions.
"""

import os
import random
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.curve.multiscalar as msm
import repro.dsa.fourq_schnorr as schnorr
from repro.curve.edwards import ecc_normalize
from repro.curve.params import PRIME_P
from repro.curve.point import AffinePoint
from repro.obs import MetricsRegistry
from repro.serve import BatchEngine, Failed
from repro.serve.faults import KIND_DEADLINE
from repro.serve.resilience import Deadline
from tests.metrics_util import counted
from tests.test_multiscalar import _sign_with_flipped_commitment

SEED = int(os.environ.get("PYTEST_SEED", "0x464F52"), 0)

SIZES = (1, 3, 5, 8, 9, 12)


def _rng(tag: str) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


@pytest.fixture(scope="module")
def registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def engine(registry):
    eng = BatchEngine(metrics=registry)
    eng.warm()
    yield eng
    eng.close()


@pytest.fixture(scope="module")
def pool():
    """(honest, forged): 12 items from 4 signers and a forged twin of each,
    with each item's per-item ``verify`` verdict."""
    rng = _rng("pool")
    kps = [schnorr.generate_keypair(rng) for _ in range(4)]
    honest = []
    for i in range(max(SIZES)):
        kp, message = kps[i % len(kps)], b"locate %d" % i
        honest.append((kp.public, message, schnorr.sign(kp, message)))
    forged = [(public, message + b"!", sig) for public, message, sig in honest]
    verdicts = {
        (i, bad): schnorr.verify(*item)
        for bad, items in ((False, honest), (True, forged))
        for i, item in enumerate(items)
    }
    return honest, forged, verdicts


def _planted(pool, n, bad):
    honest, forged, verdicts = pool
    items = [forged[i] if i in bad else honest[i] for i in range(n)]
    return items, [verdicts[i, i in bad] for i in range(n)]


@pytest.mark.parametrize("n", SIZES)
def test_every_position_matches_per_item_verify(engine, pool, n):
    rng = _rng(f"positions-{n}")
    cases = [set(), set(range(n))]
    cases += [{i} for i in range(n)]
    cases += [{i, rng.choice([j for j in range(n) if j != i])} for i in range(n) if n > 1]
    for bad in cases:
        items, expected = _planted(pool, n, bad)
        assert [v is False for v in expected] == [i in bad for i in range(n)]
        results = engine.batch_verify(items, mode="msm").results
        assert results == expected, sorted(bad)


def test_flipped_and_torsion_commitments_located(engine, pool):
    rng = _rng("special")
    items, _ = _planted(pool, 8, set())
    flip_at, torsion_at = rng.sample(range(8), 2)
    kp = schnorr.generate_keypair(rng)
    items[flip_at] = (kp.public, b"flipped",
                      _sign_with_flipped_commitment(kp, b"flipped", rng))
    # R + (0, -1): on the curve, off the order-N subgroup by an order-2 part.
    public, message, sig = items[torsion_at]
    shifted = AffinePoint(sig.commit_x, sig.commit_y) + AffinePoint(
        (0, 0), (PRIME_P - 1, 0)
    )
    items[torsion_at] = (public, message, schnorr.SchnorrSignature(
        commit_x=shifted.x, commit_y=shifted.y, s=sig.s,
    ))
    expected = [schnorr.verify(*item) for item in items]
    assert [i for i, v in enumerate(expected) if not v] == sorted((flip_at, torsion_at))
    assert engine.batch_verify(items, mode="msm").results == expected


def test_one_forgery_in_eight_costs_four_msms(engine, registry, pool, monkeypatch):
    """4 MSMs over 8, 4, 2 and 1 items, and each item prepared once.

    The vets and hashes counted are the batch's own (through
    ``repro.curve.multiscalar`` and ``repro.dsa.fourq_schnorr``); the
    one fallback verifies its item on the simulated datapath, which
    vets and hashes it again through the engine.
    """
    calls = Counter()

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(msm, "validate_verify_item", spy("vet", msm.validate_verify_item))
    monkeypatch.setattr(schnorr, "_challenge", spy("hash", schnorr._challenge))
    monkeypatch.setattr(msm, "_table", spy("table", msm._table))
    for position in range(8):
        items, expected = _planted(pool, 8, {position})
        calls.clear()
        batch, delta = counted(registry, lambda: engine.batch_verify(items, mode="msm"))
        assert batch.results == expected
        assert delta("repro_msm_sums_total") == 4, position
        assert delta("repro_msm_fallback_verifies_total") == 1, position
        assert calls == Counter(vet=8, hash=8, table=16), position


def test_honest_batch_costs_one_msm(engine, registry, pool):
    items, expected = _planted(pool, 12, set())
    batch, delta = counted(registry, lambda: engine.batch_verify(items, mode="msm"))
    assert batch.results == expected == [True] * 12
    assert delta("repro_msm_sums_total") == 1
    assert delta("repro_msm_fallback_verifies_total") == 0


def test_deadline_mid_bisection_fails_only_unresolved(engine, pool, monkeypatch):
    """The deadline passes right after the first split's MSM: the clean
    left half is already resolved, the forged right half is not."""
    now = [0.0]
    deadline = Deadline(1.0, clock=lambda: now[0])
    sums = []
    real_sum = msm.SchnorrBatch.sum

    def sum_then_expire(self, indices):
        sums.append(len(indices))
        if len(sums) == 2:
            now[0] = 2.0
        return real_sum(self, indices)

    monkeypatch.setattr(msm.SchnorrBatch, "sum", sum_then_expire)
    items, _ = _planted(pool, 8, {6})
    results = engine.batch_verify(items, mode="msm", deadline=deadline).results
    assert sums == [8, 4]
    assert results[:4] == [True] * 4
    assert all(isinstance(r, Failed) and r.kind == KIND_DEADLINE for r in results[4:])


def _affine(acc):
    return None if acc is None else ecc_normalize(acc)


@pytest.fixture(scope="module")
def prepared(pool):
    """A 12-item batch with three forgeries, under seeded weights."""
    items, expected = _planted(pool, 12, {2, 7, 11})
    return msm.SchnorrBatch(items, rng=_rng("weights")), expected


@given(st.data())
@settings(max_examples=12, deadline=None)
def test_sibling_by_subtraction_is_the_direct_sum(prepared, data):
    batch, expected = prepared
    subset = data.draw(
        st.lists(st.sampled_from(batch.live), min_size=2, unique=True), label="subset"
    )
    mid = data.draw(st.integers(1, len(subset) - 1), label="mid")
    left, right = subset[:mid], subset[mid:]
    derived = batch.difference(batch.sum(subset), batch.sum(left))
    assert _affine(derived) == _affine(batch.sum(right))
    for part in (subset, left, right):
        clean = all(expected[i] for i in part)
        assert batch.is_identity(batch.sum(part)) is clean


def test_total_is_kept_on_the_batch(pool):
    items, _ = _planted(pool, 5, {3})
    batch = msm.SchnorrBatch(items, rng=_rng("total"))
    assert msm.batch_verify_schnorr(batch) is False
    assert _affine(batch.total) == _affine(batch.sum(batch.live))
    assert batch.live == list(range(5)) and batch.rejected == []


def test_batch_weights_come_from_system_random(pool, monkeypatch):
    """One 128-bit CSPRNG draw per item when no rng is injected (the
    source-level pin is ``test_default_weights_come_from_system_random``)."""
    drawn = []

    class Spy(msm.secrets.SystemRandom):
        def getrandbits(self, k):
            drawn.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(msm.secrets, "SystemRandom", Spy)
    items, _ = _planted(pool, 3, set())
    batch = msm.SchnorrBatch(items)
    assert drawn == [128] * 3
    assert batch.is_identity(batch.sum(batch.live))


def test_a_failing_sum_resolves_item_by_item(engine, registry, pool, monkeypatch):
    def broken(self, indices):
        raise RuntimeError("injected MSM fault")

    monkeypatch.setattr(msm.SchnorrBatch, "sum", broken)
    items, expected = _planted(pool, 3, {1})
    batch, delta = counted(registry, lambda: engine.batch_verify(items, mode="msm"))
    assert batch.results == expected
    assert delta("repro_msm_fallback_verifies_total") == 3
    assert delta("repro_msm_sums_total") == 0
