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

The input domain of every wire job kind is pinned here too: payloads
with torsion components (FourQ's cofactor is 392 = 8 * 7^2), off-curve
points, scalars k >= N, wrong arity and wrong types must come back from
the engine, the asyncio front door and the TCP client either equal to
their textbook reference or as a typed ``Failed`` — never as a wrong
``Ok``.

The random seed comes from ``PYTEST_SEED`` (default pinned), so CI can
diversify coverage across runs while any failure stays reproducible:
``PYTEST_SEED=12345 pytest tests/test_differential.py``.
"""

import asyncio
import os
import random
import zlib

import pytest
from hypothesis import given, settings
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
from repro.serve.engine import WIRE_KINDS
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
        """Math-layer verify and both batch_verify modes give one verdict.

        The inputs include a genuine signature under a public key with
        each torsion component: Q = d*G + T, signed with e = H(R, Q, m).
        """
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
        for component in sorted(TORSION):
            d = rng.randrange(1, SUBGROUP_ORDER_N)
            public = scalar_mul_fourq(d, AffinePoint.generator()) + TORSION[component]
            msg = component.encode()
            sig = _sign_under(d, public, msg, rng.randrange(1, SUBGROUP_ORDER_N))
            items.append((public, msg, sig))
            expected.append(fourq_schnorr.verify(public, msg, sig))
        for component in sorted(TORSION):
            # A torsion commitment R = [k]G + T under an honest key,
            # with e = H(R, Q, m): [s]G - [e]Q lies in the subgroup, so
            # no verifier may accept it.
            key = fourq_schnorr.generate_keypair(rng)
            msg = b"torsion-commit-" + component.encode()
            k = rng.randrange(1, SUBGROUP_ORDER_N)
            commit = scalar_mul_fourq(k, AffinePoint.generator()) + TORSION[component]
            e = fourq_schnorr._challenge(commit, key.public, msg)
            sig = fourq_schnorr.SchnorrSignature(
                commit.x, commit.y, (k + e * key.private) % SUBGROUP_ORDER_N
            )
            items.append((key.public, msg, sig))
            expected.append(fourq_schnorr.verify(key.public, msg, sig))
            assert expected[-1] is False
        assert list(engine.batch_verify(items)) == expected
        assert list(engine.batch_verify(items, mode="msm")) == expected


# -- input domains: torsion components ----------------------------------------

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


def _sign_under(d, public, message, nonce):
    """A genuine Schnorr signature by d under ``public``: e = H(R, public, m)."""
    from repro.dsa.fourq_schnorr import SchnorrSignature, _challenge

    commit = scalar_mul_fourq(nonce, AffinePoint.generator())
    e = _challenge(commit, public, message)
    return SchnorrSignature(commit.x, commit.y, (nonce + e * d) % SUBGROUP_ORDER_N)


#: An off-curve point: the wire decoder builds points unchecked.
_OFF_CURVE = AffinePoint((1, 2), (3, 4), check=False)


def _point(base, component):
    return _OFF_CURVE if component == "off" else _base_point(base, component)


def _reference(kind, payload):
    """The textbook answer for a payload inside its kind's domain."""
    from repro.dsa import fourq_dh, fourq_schnorr

    if kind == "sm":
        return scalar_mul_double_and_add(*payload)
    if kind == "dh":
        private, peer = payload
        return fourq_dh.shared_secret(fourq_dh.DHKeyPair(private, b""), peer)
    if kind in ("verify", "verify_msm"):
        return fourq_schnorr.verify(*payload)
    total = AffinePoint.identity()
    for k, p in zip(*payload):
        total = total + scalar_mul_double_and_add(k, p)
    return total


def _check_outcome(kind, payload, outcome, via):
    """Textbook reference, or a typed failure: never a wrong Ok.

    ``value``/``type`` failures are the engine's domain checks; any
    other failure kind (``decoding``, ``small_order``) must be what the
    reference itself raises for the payload.
    """
    from repro.serve import Failed
    from repro.serve.faults import classify_exception

    if isinstance(outcome, Failed):
        if outcome.kind in ("value", "type"):
            return
        with pytest.raises(Exception) as info:
            _reference(kind, payload)
        assert classify_exception(info.value) == outcome.kind, (via, outcome)
    else:
        value = getattr(outcome, "value", outcome)
        assert value == _reference(kind, payload), f"{via}: {kind} {payload!r}"


_FLAVORS = ("valid", "torsion", "off_curve", "big_scalar", "arity", "type")


@st.composite
def wire_payloads(draw, kind):
    """A payload of ``kind``, after a wire round trip."""
    from repro.curve.encoding import encode_point
    from repro.serve.net.protocol import wire_decode, wire_encode

    flavor = draw(st.sampled_from(_FLAVORS))
    component = {"torsion": draw(st.sampled_from(sorted(TORSION))),
                 "off_curve": "off"}.get(flavor, "none")
    big = st.integers(SUBGROUP_ORDER_N, 2**260)
    k = draw(big if flavor == "big_scalar" else
             st.one_of(st.sampled_from(EDGE_SCALARS), st.integers(0, 2**256)))
    base = draw(st.integers(0, 3))
    if kind == "sm":
        payload = (k, _point(base, component))
    elif kind == "dh":
        payload = (k, encode_point(_point(base, component)))
    elif kind == "msm":
        n = draw(st.integers(1, 3))
        scalars = [k] + draw(st.lists(st.integers(0, 2**256), min_size=n - 1, max_size=n - 1))
        points = [_point(base, component)] + [_BASES[(base + i) % 4] for i in range(1, n)]
        payload = (tuple(scalars), tuple(points))
    else:  # verify, verify_msm: genuine under the drawn public key
        d = draw(st.integers(1, SUBGROUP_ORDER_N - 1))
        public = _point(base, component) if component == "off" else (
            scalar_mul_fourq(d, AffinePoint.generator())
            + (TORSION[component] if component != "none" else AffinePoint.identity())
        )
        message = draw(st.binary(max_size=8))
        sig = _sign_under(d, public, message, draw(st.integers(1, SUBGROUP_ORDER_N - 1)))
        if flavor == "big_scalar":
            sig = type(sig)(sig.commit_x, sig.commit_y, sig.s + SUBGROUP_ORDER_N)
        payload = (public, message, sig)
    if flavor == "arity":
        payload = payload[:-1] if draw(st.booleans()) else payload + (0,)
    elif flavor == "type":
        payload = ("junk",) + payload[1:]
    return wire_decode(wire_encode(payload))


class TestSmInputDomain:
    """Input domains of every wire kind (the property began with ``sm``)."""

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

    @pytest.mark.parametrize("component", sorted(TORSION))
    def test_msm_torsion_component_fails_typed(self, engine, component):
        rng = _rng(f"msm-torsion-{component}")
        sub, other = random_subgroup_point(rng), random_subgroup_point(rng)
        p = sub + TORSION[component]
        scalars = [rng.randrange(2**256), 5]
        # multi_scalar_mul's endomorphism path disagrees with textbook
        # double-and-add here; the engine must refuse, typed.
        for request in (([5], [p]), (scalars, [other, p])):
            (outcome,) = engine.batch_msm([request]).outcomes
            assert not outcome.ok and outcome.kind == "value"
        cleared = p.clear_cofactor()
        (got,) = engine.batch_msm([(scalars, [other, cleared])]).unwrap()
        assert got == _reference("msm", (scalars, [other, cleared]))

    @pytest.mark.parametrize("kind", WIRE_KINDS)
    @given(data=st.data())
    def test_engine_matches_textbook_or_fails_typed(self, engine, kind, data):
        payload = data.draw(wire_payloads(kind))
        (outcome,) = engine.run_jobs([(kind, payload)]).outcomes
        _check_outcome(kind, payload, outcome, "engine")
        if kind == "sm" and len(payload) == 2:
            try:
                direct = engine.scalarmult(*payload)
            except (ValueError, TypeError):
                assert not outcome.ok
            else:
                _check_outcome(kind, payload, direct, "scalarmult")

    @pytest.mark.parametrize("kind", WIRE_KINDS)
    @given(data=st.data())
    @settings(max_examples=10)
    def test_frontend_and_tcp_match_textbook_or_fail_typed(self, engine, kind, data):
        from repro.obs import MetricsRegistry
        from repro.serve import Frontend, NetClient, NetServer, NetServerConfig

        payload = data.draw(wire_payloads(kind))

        async def body():
            registry = MetricsRegistry()
            fe = Frontend(engine, metrics=registry, max_batch=2, max_wait_ms=1.0)
            server = await NetServer(
                frontend=fe, metrics=registry, config=NetServerConfig(port=0)
            ).start()
            try:
                local = await fe.submit_outcome(kind, payload)
                async with await NetClient.connect("127.0.0.1", server.port) as c:
                    remote = await c.submit_outcome(kind, payload)
            finally:
                await server.aclose()
                await fe.aclose()
            return local, remote

        local, remote = asyncio.run(asyncio.wait_for(body(), timeout=120))
        _check_outcome(kind, payload, local, "frontend")
        _check_outcome(kind, payload, remote, "tcp")
