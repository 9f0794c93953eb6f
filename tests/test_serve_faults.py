"""Fault isolation: one poisoned request must never kill the batch.

The contract under test (docs/serving.md, "The error contract"):

* a rejected request — small-order peer key, malformed encoding,
  unprocessable signature material — costs exactly one typed
  :class:`~repro.serve.faults.Failed` slot in the result, in input
  order, while every other item returns its bit-exact value;
* ``strict=True`` restores the historical raise-on-first-error;
* serial and ``workers=2`` mode return identical outcomes;
* a chunk whose worker process dies or times out is requeued and
  recovered serially in the parent — results already computed by
  healthy workers are never discarded.
"""

import dataclasses
import random

import pytest

from repro.curve.encoding import DecodingError, encode_point
from repro.curve.params import SUBGROUP_ORDER_N
from repro.curve.point import AffinePoint
from repro.curve.scalarmult import scalar_mul_fourq
from repro.dsa import fourq_dh, fourq_schnorr
from repro.dsa.fourq_dh import SmallOrderPoint
from repro.obs import MetricsRegistry
from repro.serve import BatchEngine, Failed
from repro.serve.faults import (
    KIND_DECODING,
    KIND_SMALL_ORDER,
    KIND_TYPE,
    classify_exception,
)
from tests.metrics_util import counted

#: Decodes fine, collapses to the identity at cofactor clearing.
SMALL_ORDER_ENCODING = encode_point(AffinePoint.identity())
#: Dies in the decoder (reserved bit set).
GARBAGE_ENCODING = b"\xff" * 32

N_ITEMS = 64
N_BAD = 8


@pytest.fixture(scope="module")
def engine():
    eng = BatchEngine(metrics=MetricsRegistry())
    eng.warm()
    return eng


@pytest.fixture(scope="module")
def poisoned_dh():
    """64 DH requests, 8 invalid (4 small-order + 4 malformed), and the
    reference secrets for the 56 good ones."""
    rng = random.Random(0xFA_157)
    me = fourq_dh.generate_keypair(rng)
    pubs = [fourq_dh.generate_keypair(rng).public_bytes for _ in range(N_ITEMS)]
    bad_positions = sorted(rng.sample(range(N_ITEMS), N_BAD))
    expected_kinds = {}
    for j, pos in enumerate(bad_positions):
        pubs[pos] = SMALL_ORDER_ENCODING if j % 2 == 0 else GARBAGE_ENCODING
        expected_kinds[pos] = KIND_SMALL_ORDER if j % 2 == 0 else KIND_DECODING
    references = {
        i: fourq_dh.shared_secret(me, pub)
        for i, pub in enumerate(pubs)
        if i not in expected_kinds
    }
    return me, pubs, expected_kinds, references


@pytest.fixture(scope="module")
def serial_dh(engine, poisoned_dh):
    """The serial poisoned batch and its counter-delta reader."""
    me, pubs, _, _ = poisoned_dh
    return counted(engine.metrics, lambda: engine.batch_dh(me.private, pubs))


@pytest.fixture(scope="module")
def serial_dh_result(serial_dh):
    return serial_dh[0]


class TestPoisonedBatchDH:
    """The acceptance scenario: 64 items, 8 poisoned, nothing lost."""

    def test_serial_isolation(self, serial_dh, poisoned_dh):
        _, _, expected_kinds, references = poisoned_dh
        result, delta = serial_dh
        assert len(result) == N_ITEMS
        assert result.ok_count == N_ITEMS - N_BAD

        # 56 correct shared secrets, bit-identical to the reference.
        for i, secret in references.items():
            assert result[i] == secret

        # 8 typed errors, in input order, at the injected positions.
        errors = result.errors
        assert [f.index for f in errors] == sorted(expected_kinds)
        for failure in errors:
            assert isinstance(failure, Failed)
            assert failure.kind == expected_kinds[failure.index]
            assert failure.message
            assert failure.latency > 0.0

        # Observability matches the injected faults exactly.
        assert delta("repro_serve_errors_total") == N_BAD
        assert delta("repro_serve_errors_total", kind=KIND_SMALL_ORDER) == N_BAD // 2
        assert delta("repro_serve_errors_total", kind=KIND_DECODING) == N_BAD // 2
        assert delta("repro_serve_items_total", outcome="error") == N_BAD
        assert delta("repro_serve_items_total", outcome="ok") == N_ITEMS - N_BAD

    def test_workers2_identical_to_serial(self, engine, poisoned_dh, serial_dh):
        me, pubs, _, _ = poisoned_dh
        parallel, delta = counted(
            engine.metrics, lambda: engine.batch_dh(me.private, pubs, workers=2)
        )
        serial, serial_delta = serial_dh
        # Byte-identical values, equal envelopes (latency excluded from
        # envelope identity), same order.
        assert parallel.results == serial.results
        assert engine.supervisor.size == 2
        for kind in (KIND_SMALL_ORDER, KIND_DECODING):
            assert delta("repro_serve_errors_total", kind=kind) == serial_delta(
                "repro_serve_errors_total", kind=kind
            )

    def test_strict_reproduces_raise_behaviour(self, engine, poisoned_dh):
        me, pubs, expected_kinds, _ = poisoned_dh
        first_bad = min(expected_kinds)
        expected_exc = (
            SmallOrderPoint
            if expected_kinds[first_bad] == KIND_SMALL_ORDER
            else DecodingError
        )
        with pytest.raises(expected_exc):
            engine.batch_dh(me.private, pubs, strict=True)
        # Strict mode across workers raises the same class.
        with pytest.raises(expected_exc):
            engine.batch_dh(me.private, pubs[: first_bad + 2], workers=2, strict=True)

    def test_unwrap_raises_and_clean_batch_unwraps(self, engine, poisoned_dh, serial_dh_result):
        me, pubs, expected_kinds, references = poisoned_dh
        with pytest.raises((SmallOrderPoint, DecodingError)):
            serial_dh_result.unwrap()
        good_pubs = [pubs[i] for i in sorted(references)]
        clean = engine.batch_dh(me.private, good_pubs[:3])
        assert clean.unwrap() == [references[i] for i in sorted(references)[:3]]


class TestBatchVerifyFaults:
    def test_malformed_signature_is_typed_error_not_batch_abort(self, engine):
        rng = random.Random(0x5160)
        key = fourq_schnorr.generate_keypair(rng)
        sig = fourq_schnorr.sign(key, b"serve", nonce=12345)
        # Invalid-but-well-formed: verifies False (a verdict, not a fault).
        wrong_s = dataclasses.replace(sig, s=(sig.s + 1) % SUBGROUP_ORDER_N)
        # Unprocessable material: a typed Failed envelope.
        junk = dataclasses.replace(sig, s="junk")

        result, delta = counted(engine.metrics, lambda: engine.batch_verify(
            [
                (key.public, b"serve", sig),
                (key.public, b"serve", junk),
                (key.public, b"serve", wrong_s),
            ]
        ))
        assert result[0] is True
        assert isinstance(result[1], Failed) and result[1].kind == KIND_TYPE
        assert result[1].index == 1
        assert result[2] is False
        assert result.ok_count == 2
        assert delta("repro_serve_errors_total") == 1
        assert delta("repro_serve_errors_total", kind=KIND_TYPE) == 1

        with pytest.raises(TypeError):
            engine.batch_verify([(key.public, b"serve", junk)], strict=True)


class TestWorkerRecovery:
    def test_killed_worker_chunk_is_recovered(self, engine):
        """A worker dying mid-batch loses no result and preserves order."""
        scalars = (11, 12, 13)
        jobs = [("fault", ("exit",))] + [
            ("sm", (k, AffinePoint.generator())) for k in scalars
        ]
        result, delta = counted(
            engine.metrics, lambda: engine._run_batch(jobs, workers=2, dedup=False)
        )
        assert delta("repro_serve_chunk_requeues_total") >= 1
        assert delta("repro_serve_chunk_retries_total") >= 1
        # The fault job was recovered by the parent's serial re-run.
        assert result[0] == ("fault", "exit")
        for k, got in zip(scalars, result.results[1:]):
            ref = scalar_mul_fourq(k, AffinePoint.generator())
            assert (got.x, got.y) == (ref.x, ref.y)

    def test_timed_out_chunk_is_recovered(self, engine):
        """A chunk over its time budget is requeued, not waited on."""
        engine.chunk_timeout = 0.25
        try:
            result, delta = counted(engine.metrics, lambda: engine._run_batch(
                [("fault", ("sleep", 3.0)), ("fault", ("noop",))],
                workers=2,
                dedup=False,
            ))
        finally:
            engine.chunk_timeout = None
        assert delta("repro_serve_chunk_requeues_total") >= 1
        assert result.results == [("fault", "sleep"), ("fault", "noop")]


class TestVerifyOutputsStrictness:
    def test_missing_output_name_raises(self):
        """A renamed/dropped output must fail the end-to-end check."""
        from repro.flow import _verify_outputs, run_flow
        from repro.rtl.datapath import SimulationError
        from repro.trace import trace_loop_iteration

        flow = run_flow(trace_loop_iteration(random.Random(9)))
        sim = flow.simulation
        name = next(iter(sim.outputs))
        pruned = dataclasses.replace(
            sim, outputs={k: v for k, v in sim.outputs.items() if k != name}
        )
        with pytest.raises(SimulationError, match="missing"):
            _verify_outputs(flow.trace_program, flow.microprogram, pruned)
        # The intact result still verifies.
        _verify_outputs(flow.trace_program, flow.microprogram, sim)


class TestClassification:
    def test_exception_taxonomy(self):
        assert classify_exception(SmallOrderPoint("x")) == KIND_SMALL_ORDER
        assert classify_exception(DecodingError("x")) == KIND_DECODING
        assert classify_exception(ValueError("x")) == "value"
        assert classify_exception(TypeError("x")) == KIND_TYPE
        assert classify_exception(ZeroDivisionError("x")) == "internal"

    def test_failed_rematerializes_exception(self):
        failure = Failed(kind=KIND_SMALL_ORDER, message="small order", index=3)
        exc = failure.to_exception()
        assert isinstance(exc, SmallOrderPoint)
        assert str(exc) == "small order"
        unknown = Failed(kind="worker_crash", message="boom")
        assert type(unknown.to_exception()).__name__ == "BatchItemError"
