"""MSM as a server workload: engine, frontend, fallback, metrics.

The contract under test (docs/serving.md, "Batch verification and
MSM"): ``mode="msm"`` changes *cost*, never *verdicts*.  Every item an
MSM-mode batch resolves must carry the verdict the per-item verifier
would have produced, whatever mix of honest, forged, and malformed
items the batch holds — a forged signature triggers bisection and
per-item fallback, it never fails (or falsely accepts) its honest
neighbours.  The ``batch_msm`` job kind, the ``verify_msm`` frontend
routing, the simulated-cycles extrapolation, and the ``repro_msm_*``
metric series are pinned here too.
"""

import asyncio
import os
import random
import zlib

import pytest

from repro.curve.multiscalar import multi_scalar_mul
from repro.curve.params import SUBGROUP_ORDER_N
from repro.curve.point import random_subgroup_point
from repro.dsa import fourq_schnorr
from repro.obs import MetricsRegistry
from repro.serve import BatchEngine, Failed, Frontend
from repro.serve.faults import KIND_DEADLINE
from repro.serve.resilience import Deadline
from tests.metrics_util import counted
from tests.test_multiscalar import _sign_with_flipped_commitment

SEED = int(os.environ.get("PYTEST_SEED", "0x4D5A"), 0)


def _rng(tag: str) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random((SEED << 32) ^ zlib.crc32(tag.encode()))


def signed_items(rng, n, signers=2):
    """n (public, message, signature) triples from a few keypairs."""
    kps = [fourq_schnorr.generate_keypair(rng) for _ in range(signers)]
    return [
        (
            kps[i % signers].public,
            b"msm-serving-%d" % i,
            fourq_schnorr.sign(kps[i % signers], b"msm-serving-%d" % i),
        )
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def registry():
    return MetricsRegistry()


@pytest.fixture(scope="module")
def engine(registry):
    eng = BatchEngine(metrics=registry)
    eng.warm()
    return eng


class TestBatchMsm:
    def test_matches_direct_multi_scalar_mul(self, engine):
        rng = _rng("batch-msm")
        requests = []
        for n in (1, 3, 9):  # one, a few and more points than the kernel's 8
            points = [random_subgroup_point(rng) for _ in range(n)]
            scalars = [rng.randrange(1, SUBGROUP_ORDER_N) for _ in range(n)]
            requests.append((scalars, points))
        batch, delta = counted(engine.metrics, lambda: engine.batch_msm(requests))
        assert batch.ok_count == len(requests)
        for (scalars, points), got in zip(requests, batch.results):
            assert got == multi_scalar_mul(scalars, points)
        assert delta("repro_msm_model_cycles_total") > 0

    def test_malformed_request_is_isolated(self, engine):
        rng = _rng("msm-malformed")
        p = random_subgroup_point(rng)
        good = ([5, 7], [p, random_subgroup_point(rng)])
        bad = ([5, 7], [p])  # length mismatch
        batch = engine.batch_msm([good, bad, good])
        assert isinstance(batch.results[1], Failed)
        assert batch.results[0] == batch.results[2] == multi_scalar_mul(*good)

    def test_cycles_estimate_sane(self, engine):
        assert engine.msm_cycles_estimate(0) == 0
        small = engine.msm_cycles_estimate(2)
        large = engine.msm_cycles_estimate(129)
        assert 0 < small < large
        # The fixed-shape kernel flow behind the estimate is cached.
        flow = engine.msm_kernel_flow()
        assert flow.cycles > 0
        assert engine.msm_kernel_flow().cycles == flow.cycles


class TestMsmVerify:
    def test_honest_batch_all_true(self, engine):
        items = signed_items(_rng("honest"), 9)
        batch, delta = counted(
            engine.metrics, lambda: engine.batch_verify(items, mode="msm")
        )
        assert batch.results == [True] * len(items)
        assert delta("repro_serve_items_total", kind="verify_msm") == len(items)
        assert delta("repro_msm_model_cycles_total") > 0

    def test_forged_item_isolated_honest_stay_ok(self, engine, registry):
        items = signed_items(_rng("forged"), 12)
        public, _, sig = items[7]
        items[7] = (public, b"forged", sig)
        before = registry.value("repro_msm_fallback_verifies_total") or 0
        batch = engine.batch_verify(items, mode="msm")
        assert batch.results[7] is False
        assert all(v is True for i, v in enumerate(batch.results) if i != 7)
        # The forgery was found by bisection + per-item fallback, not by
        # failing the batch wholesale.
        after = registry.value("repro_msm_fallback_verifies_total") or 0
        assert after > before

    def test_flipped_commitment_isolated_by_bisection(self, engine, registry):
        """A signature on -R, valid for a verifier with +R, is found."""
        rng = _rng("flipped")
        items = signed_items(rng, 6)
        kp = fourq_schnorr.generate_keypair(rng)
        items[4] = (kp.public, b"flipped",
                    _sign_with_flipped_commitment(kp, b"flipped", rng))
        before = registry.value("repro_msm_fallback_verifies_total") or 0
        batch = engine.batch_verify(items, mode="msm")
        assert batch.results == [True] * 4 + [False, True]
        after = registry.value("repro_msm_fallback_verifies_total") or 0
        assert after > before

    def test_invalid_items_get_false_not_failed(self, engine):
        """Off-subgroup keys and malformed items are verdicts, not faults."""
        rng = _rng("invalid")
        items = signed_items(rng, 3)
        public, msg, sig = items[1]
        # Cofactor escape: a random point is off the order-N subgroup
        # with overwhelming probability (the 392-torsion component).
        from repro.curve.point import random_point

        outside = random_point(rng)
        items[1] = (outside, msg, sig)
        batch = engine.batch_verify(items, mode="msm")
        assert batch.results[1] is False
        assert batch.results[0] is True and batch.results[2] is True

    def test_unpackable_item_is_failed(self, engine):
        items = signed_items(_rng("unpack"), 2)
        batch = engine.batch_verify(items + ["not-an-item"], mode="msm")
        assert isinstance(batch.results[2], Failed)
        assert batch.results[0] is True and batch.results[1] is True

    def test_expired_deadline_fails_items(self, engine):
        items = signed_items(_rng("deadline"), 3)
        dead = Deadline.after(-1.0)
        batch = engine.batch_verify(items, mode="msm", deadline=dead)
        assert all(isinstance(r, Failed) for r in batch.results)
        assert all(r.kind == KIND_DEADLINE for r in batch.results)

    def test_unknown_mode_rejected(self, engine):
        with pytest.raises(ValueError, match="mode"):
            engine.batch_verify(signed_items(_rng("mode"), 1), mode="turbo")

    def test_agrees_with_simulate_mode(self, engine):
        """Same verdicts whether the batch is simulated or MSM-checked."""
        items = signed_items(_rng("agree"), 4)
        public, _, sig = items[2]
        items[2] = (public, b"tampered", sig)
        msm = engine.batch_verify(items, mode="msm")
        sim = engine.batch_verify(items)
        assert msm.results == sim.results == [True, True, False, True]


class TestMixedBatches:
    def test_run_jobs_mixes_msm_verify_with_other_kinds(self, engine):
        rng = _rng("mixed")
        items = signed_items(rng, 3)
        p = random_subgroup_point(rng)
        jobs = [
            ("verify_msm", items[0]),
            ("sm", (11, p)),
            ("verify_msm", items[1]),
            ("msm", ([3, 4], [p, random_subgroup_point(rng)])),
            ("verify_msm", items[2]),
        ]
        batch, delta = counted(engine.metrics, lambda: engine.run_jobs(jobs))
        assert batch.ok_count == len(jobs)
        assert batch.results[0] is True
        assert batch.results[2] is True
        assert batch.results[4] is True
        assert batch.results[1] == 11 * p
        assert delta("repro_serve_items_total") == len(jobs)


class TestFrontendRouting:
    def _run(self, coro):
        return asyncio.run(asyncio.wait_for(coro, timeout=120))

    def test_verify_msm_and_alias_reach_the_engine(self, engine):
        items = signed_items(_rng("frontend"), 4)
        public, _, sig = items[3]
        items[3] = (public, b"frontend-forged", sig)

        async def body():
            async with Frontend(engine, max_batch=4,
                                max_wait_ms=50.0) as fe:
                return await asyncio.gather(
                    fe.submit("verify_msm", items[0]),
                    fe.submit("verify-msm", items[1]),  # alias
                    fe.submit("verify_msm", items[2]),
                    fe.submit("verify_msm", items[3]),
                )

        results = self._run(body())
        assert results == [True, True, True, False]

    def test_msm_kind_reaches_the_engine(self, engine):
        rng = _rng("frontend-msm")
        points = [random_subgroup_point(rng) for _ in range(3)]
        scalars = [rng.randrange(1, SUBGROUP_ORDER_N) for _ in range(3)]

        async def body():
            async with Frontend(engine, max_batch=2,
                                max_wait_ms=50.0) as fe:
                return await fe.submit("msm", (scalars, points))

        assert self._run(body()) == multi_scalar_mul(scalars, points)

    def test_point_outside_the_subgroup_fails_typed_everywhere(self, engine):
        """The off-subgroup base that once came back as a wrong Ok."""
        from repro.curve.point import random_point
        from repro.serve import NetClient, NetServer, NetServerConfig

        request = ([5], [random_point(random.Random(3))])
        (direct,) = engine.batch_msm([request]).outcomes

        async def body():
            fe = Frontend(engine, metrics=MetricsRegistry(), max_wait_ms=1.0)
            server = await NetServer(
                frontend=fe, metrics=MetricsRegistry(),
                config=NetServerConfig(port=0),
            ).start()
            try:
                local = await fe.submit_outcome("msm", request)
                async with await NetClient.connect("127.0.0.1", server.port) as c:
                    remote = await c.submit_outcome("msm", request)
            finally:
                await server.aclose()
                await fe.aclose()
            return local, remote

        for outcome in (direct, *self._run(body())):
            assert isinstance(outcome, Failed) and outcome.kind == "value"


class TestMsmMetrics:
    def test_series_present_after_msm_traffic(self, engine, registry):
        # Earlier tests in this module drove accepted and fallback
        # batches through `engine`; the registry must hold the series
        # the observability docs promise.
        engine.batch_verify(signed_items(_rng("metrics"), 3), mode="msm")
        assert registry.value("repro_msm_batches_total",
                              outcome="accepted") >= 1
        assert registry.value("repro_msm_items_total", verdict="valid") >= 1
        assert registry.value("repro_msm_simulated_cycles_per_op") > 0
        snap = registry.snapshot()
        hist_names = {s["name"] for s in snap["histograms"]}
        counter_names = {s["name"] for s in snap["counters"]}
        assert "repro_msm_batch_size" in hist_names
        assert "repro_msm_fallback_verifies_total" in counter_names
