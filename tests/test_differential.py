"""Differential test harness: independent implementations must agree.

Randomized (scalar, point) workloads are pushed through every
implementation of the same mathematical contract and the results are
required to agree **bit for bit**:

* the pure Edwards math layer (:func:`scalar_mul_fourq` — extended
  coordinates, endomorphisms, GLV-SAC recoding);
* plain double-and-add and wNAF ladders on the affine group law;
* the **cycle-accurate simulated datapath** through the batch engine
  (trace -> cached schedule -> microcode -> golden-checked simulation),
  both as one pre-formed batch and streamed one request at a time
  through the continuous-batching asyncio front door;
* an independent short-**Weierstrass** model over F_{p^2}: map the
  point through the birational Edwards -> Montgomery -> Weierstrass
  maps, run a textbook chord-and-tangent ladder there, map back;
* the **curve25519** baseline for the DH contract shape (commutativity
  of the key exchange; different curve, so only the protocol-level
  property is comparable).

The ``sm`` input domain is pinned here too: base points with a torsion
component (FourQ's cofactor is 392 = 8 * 7^2) must come back from the
engine, the asyncio front door and the TCP client either equal to
textbook double-and-add or as ``Failed(kind="value")`` — never as a
wrong ``Ok``.

The random seed comes from ``PYTEST_SEED`` (default pinned), so CI can
diversify coverage across runs while any failure stays reproducible:
``PYTEST_SEED=12345 pytest tests/test_differential.py``.
"""

import asyncio
import os
import random
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.curve.params import SUBGROUP_ORDER_N
from repro.curve.point import AffinePoint, random_point, random_subgroup_point
from repro.curve.scalarmult import (
    scalar_mul_double_and_add,
    scalar_mul_double_base,
    scalar_mul_fourq,
    scalar_mul_wnaf,
)
from repro.curve.wmodel import WeierstrassModel
from repro.field.fp2 import fp2_add, fp2_inv, fp2_mul, fp2_neg, fp2_sqr, fp2_sub

SEED = int(os.environ.get("PYTEST_SEED", "0xD1FF"), 0)


def _rng(tag: str) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


@pytest.fixture(scope="module")
def engine():
    from repro.serve import BatchEngine

    eng = BatchEngine()
    eng.warm()
    return eng


# -- an independent Weierstrass ladder (test-local on purpose: it must
# -- share no code with the implementations under test) ----------------

def _w_add(model, p, q):
    if p is None:
        return q
    if q is None:
        return p
    (x1, y1), (x2, y2) = p, q
    if x1 == x2:
        if y1 == fp2_neg(y2):
            return None
        num = fp2_add(fp2_mul((3, 0), fp2_sqr(x1)), model.a)
        den = fp2_mul((2, 0), y1)
    else:
        num = fp2_sub(y2, y1)
        den = fp2_sub(x2, x1)
    lam = fp2_mul(num, fp2_inv(den))
    x3 = fp2_sub(fp2_sub(fp2_sqr(lam), x1), x2)
    y3 = fp2_sub(fp2_mul(lam, fp2_sub(x1, x3)), y1)
    return (x3, y3)


def _w_scalar_mul(model, k, wp):
    acc = None
    for bit in bin(k)[2:]:
        acc = _w_add(model, acc, acc)
        if bit == "1":
            acc = _w_add(model, acc, wp)
    return acc


class TestScalarMultDifferential:
    N_CASES = 4

    def test_four_ladders_agree(self, engine):
        """fourq == double-and-add == wNAF == simulated datapath."""
        rng = _rng("ladders")
        cases = []
        for _ in range(self.N_CASES):
            cases.append((rng.randrange(2**256), random_subgroup_point(rng)))
        cases.append((1, random_subgroup_point(rng)))
        cases.append((SUBGROUP_ORDER_N - 1, random_subgroup_point(rng)))
        cases.append((SUBGROUP_ORDER_N + 5, AffinePoint.generator()))

        batch = engine.batch_scalarmult(
            [k for k, _ in cases], points=[p for _, p in cases]
        )
        for (k, p), sim in zip(cases, batch):
            ref = scalar_mul_fourq(k, p)
            dna = scalar_mul_double_and_add(k, p)
            wnaf = scalar_mul_wnaf(k, p)
            assert (ref.x, ref.y) == (dna.x, dna.y), f"k={k:#x}"
            assert (ref.x, ref.y) == (wnaf.x, wnaf.y), f"k={k:#x}"
            assert (ref.x, ref.y) == (sim.x, sim.y), f"k={k:#x} (datapath)"

    def test_weierstrass_model_agrees(self):
        """Map to the Weierstrass model, multiply there, map back."""
        model = WeierstrassModel.of_fourq()
        rng = _rng("weierstrass")
        for _ in range(3):
            p = random_subgroup_point(rng)
            k = rng.randrange(1, SUBGROUP_ORDER_N)
            wp = model.from_edwards(p)
            assert model.contains(wp)
            wr = _w_scalar_mul(model, k, wp)
            assert wr is not None  # k != 0 mod N on an order-N point
            back = model.to_edwards(wr)
            ref = scalar_mul_fourq(k, p)
            assert (back.x, back.y) == (ref.x, ref.y), f"k={k:#x}"

    def test_scalar_reduction_consistency(self, engine):
        """[k]P == [k mod N]P across the layers (Algorithm 1 reduces)."""
        rng = _rng("reduction")
        p = random_subgroup_point(rng)
        k = rng.randrange(2**255, 2**256)
        batch = engine.batch_scalarmult([k, k % SUBGROUP_ORDER_N], point=p)
        assert (batch[0].x, batch[0].y) == (batch[1].x, batch[1].y)


class TestDoubleBaseDifferential:
    def test_double_base_agrees(self, engine):
        """[u1]P1 + [u2]P2: affine sum == Straus-Shamir == datapath."""
        rng = _rng("double-base")
        for _ in range(2):
            p1 = random_subgroup_point(rng)
            p2 = random_subgroup_point(rng)
            u1 = rng.randrange(1, SUBGROUP_ORDER_N)
            u2 = rng.randrange(1, SUBGROUP_ORDER_N)
            affine = (u1 * p1) + (u2 * p2)
            straus = scalar_mul_double_base(u1, u2, p1, p2)
            flow = engine.double_scalarmult_flow(u1, u2, p1, p2)
            sim = engine._point_from_outputs(flow)
            assert (affine.x, affine.y) == (straus.x, straus.y)
            assert (affine.x, affine.y) == (sim.x, sim.y)


class TestDHContractDifferential:
    def test_fourq_and_x25519_commute(self, engine):
        """Both DH implementations satisfy the exchange contract.

        curve25519 lives on a different curve, so the comparable surface
        is the protocol property: both sides derive the same secret, and
        the batch engine's DH agrees byte-for-byte with the reference
        FourQ implementation.
        """
        from repro.baselines.curve25519 import x25519
        from repro.dsa import fourq_dh

        rng = _rng("dh")

        a = fourq_dh.generate_keypair(rng)
        b = fourq_dh.generate_keypair(rng)
        s_ab = fourq_dh.shared_secret(a, b.public_bytes)
        s_ba = fourq_dh.shared_secret(b, a.public_bytes)
        assert s_ab == s_ba
        eng_ab = engine.batch_dh(a.private, [b.public_bytes])
        eng_ba = engine.batch_dh(b.private, [a.public_bytes])
        assert eng_ab[0] == s_ab and eng_ba[0] == s_ba

        ka = rng.randrange(2**255).to_bytes(32, "little")
        kb = rng.randrange(2**255).to_bytes(32, "little")
        pub_a, pub_b = x25519(ka), x25519(kb)
        assert x25519(ka, pub_b) == x25519(kb, pub_a)


class TestFrontendStreamDifferential:
    N_STREAM = 10

    def test_streamed_requests_match_preformed_batch(self, engine):
        """Continuous batching changes arrival, never results.

        N random (scalar, point) requests stream through
        ``Frontend.submit`` concurrently — with seeded arrival jitter so
        the coalescer produces a mix of size- and deadline-triggered
        flushes — and must agree **bit for bit** with a single
        pre-formed ``batch_scalarmult`` over the same inputs.
        """
        import asyncio

        from repro.obs import MetricsRegistry
        from repro.serve import Frontend
        from tests.metrics_util import count

        rng = _rng("frontend-stream")
        cases = [
            (rng.randrange(2**256), random_subgroup_point(rng))
            for _ in range(self.N_STREAM)
        ]
        direct = engine.batch_scalarmult(
            [k for k, _ in cases], points=[p for _, p in cases]
        )
        assert direct.ok_count == len(cases)

        async def stream():
            async with Frontend(engine, metrics=MetricsRegistry(), max_batch=4,
                                max_wait_ms=10.0) as fe:
                async def one(k, p):
                    # Seeded jitter staggers arrivals across flushes.
                    await asyncio.sleep(rng.random() * 0.02)
                    return await fe.submit("sm", (k, p))

                results = await asyncio.gather(*[one(k, p) for k, p in cases])
            assert count(fe.metrics, "repro_frontend_resolved_total",
                         outcome="ok") == len(cases)
            return results

        streamed = asyncio.run(asyncio.wait_for(stream(), timeout=300))
        for (k, _), via_frontend, via_batch in zip(cases, streamed, direct):
            assert (via_frontend.x, via_frontend.y) == (via_batch.x, via_batch.y), (
                f"k={k:#x} (frontend vs batch)"
            )


class TestSignatureDifferential:
    def test_verify_paths_agree(self, engine):
        """Math-layer verify and datapath batch_verify give one verdict."""
        from dataclasses import replace

        from repro.dsa import fourq_schnorr

        rng = _rng("schnorr")
        items = []
        expected = []
        for i in range(3):
            key = fourq_schnorr.generate_keypair(rng)
            msg = bytes([i]) * 24
            sig = fourq_schnorr.sign(key, msg, nonce=rng.randrange(1, SUBGROUP_ORDER_N))
            if i == 1:  # corrupt one signature
                sig = replace(sig, s=(sig.s + 1) % SUBGROUP_ORDER_N)
            items.append((key.public, msg, sig))
            expected.append(fourq_schnorr.verify(key.public, msg, sig))
        assert expected == [True, False, True]
        assert list(engine.batch_verify(items)) == expected


# -- the sm input domain: torsion components --------------------------------

def _torsion_points():
    """One torsion component per shape of FourQ's cofactor group.

    E(F_{p^2}) is Z_{8*7*N} x Z_7: the 2-part is cyclic of order 8 and
    the 7-part is Z_7 x Z_7 (49 points, every non-identity one of order
    7), so "7x7" is an order-7 point off the first order-7 line, and
    "56" mixes both parts.
    """
    rng = random.Random(0x7025)
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
    return {
        "2": 4 * t8, "4": 2 * t8, "8": t8, "7": t7,
        "7x7": t7 + t7b, "56": t8 + t7,
    }


TORSION = _torsion_points()
#: Scalars on the awkward corners: zero, the group order, k >= N.
EDGE_SCALARS = (0, 1, SUBGROUP_ORDER_N - 1, SUBGROUP_ORDER_N,
                SUBGROUP_ORDER_N + 1, 2 * SUBGROUP_ORDER_N, 2**256 - 1)


_BASES = [AffinePoint.generator()] + [
    random_subgroup_point(random.Random(0xBA5E + i)) for i in range(3)
]


def _base_point(base, component):
    p = _BASES[base]
    return p if component == "none" else p + TORSION[component]


def _check_sm(k, p, outcome, via):
    """Textbook double-and-add, or a typed value failure: nothing else."""
    from repro.serve import Failed

    if isinstance(outcome, Failed):
        assert outcome.kind == "value", (via, outcome)
    else:
        value = getattr(outcome, "value", outcome)
        ref = scalar_mul_double_and_add(k, p)
        assert (value.x, value.y) == (ref.x, ref.y), f"{via}: k={k:#x}"


class TestSmInputDomain:
    @pytest.mark.parametrize("component", sorted(TORSION))
    def test_torsion_component_never_returns_a_wrong_point(self, engine, component):
        rng = _rng(f"torsion-{component}")
        sub, t = random_subgroup_point(rng), TORSION[component]
        p = sub + t
        k = rng.randrange(2**256)
        # The textbook ladders agree on the full group: [k]P is the
        # subgroup part plus [k mod order(T)]T.
        dna = scalar_mul_double_and_add(k, p)
        split = scalar_mul_fourq(k, sub) + (k * t)
        wnaf = scalar_mul_wnaf(k, p)
        assert (dna.x, dna.y) == (split.x, split.y) == (wnaf.x, wnaf.y)
        # The engine's endomorphism path is only valid on the subgroup:
        # it must refuse, typed, rather than agree with itself wrongly.
        (outcome,) = engine.batch_scalarmult([k], point=p).outcomes
        assert not outcome.ok and outcome.kind == "value"
        with pytest.raises(ValueError):
            engine.scalarmult(k, p)
        # Clearing the cofactor brings the point back into the domain.
        cleared = p.clear_cofactor()
        got = engine.scalarmult(k, cleared)
        ref = scalar_mul_double_and_add(k, cleared)
        assert (got.x, got.y) == (ref.x, ref.y)

    @given(
        k=st.one_of(st.sampled_from(EDGE_SCALARS), st.integers(0, 2**260)),
        component=st.sampled_from(["none"] + sorted(TORSION)),
        base=st.integers(0, 3),
    )
    def test_engine_sm_matches_textbook_or_fails_typed(self, engine, k, component, base):
        p = _base_point(base, component)
        (outcome,) = engine.batch_scalarmult([k], point=p).outcomes
        _check_sm(k, p, outcome, "engine")
        try:
            direct = engine.scalarmult(k, p)
        except ValueError:
            assert component != "none"
        else:
            _check_sm(k, p, direct, "scalarmult")

    @given(
        k=st.one_of(st.sampled_from(EDGE_SCALARS), st.integers(0, 2**260)),
        component=st.sampled_from(["none"] + sorted(TORSION)),
        base=st.integers(0, 3),
    )
    def test_frontend_and_tcp_sm_match_textbook_or_fail_typed(
        self, engine, k, component, base
    ):
        from repro.obs import MetricsRegistry
        from repro.serve import Frontend, NetClient, NetServer, NetServerConfig

        p = _base_point(base, component)

        async def body():
            registry = MetricsRegistry()
            fe = Frontend(engine, metrics=registry, max_batch=2, max_wait_ms=1.0)
            server = await NetServer(
                frontend=fe, metrics=registry, config=NetServerConfig(port=0)
            ).start()
            try:
                local = await fe.submit_outcome("sm", (k, p))
                async with await NetClient.connect("127.0.0.1", server.port) as c:
                    remote = await c.submit_outcome("sm", (k, p))
            finally:
                await server.aclose()
                await fe.aclose()
            return local, remote

        local, remote = asyncio.run(asyncio.wait_for(body(), timeout=120))
        _check_sm(k, p, local, "frontend")
        _check_sm(k, p, remote, "tcp")
