"""A cached shape's replay equals the traced algorithm, or is never stored.

:class:`repro.trace.replay.Replay` recomputes a cache hit's golden
values from the filled trace, with SELECT choices from a select map
derived from the main loop.  These tests require, for both recorded
shapes (single-base ``sm``/``dh`` and double-base ``verify``), that the
replay's recording equals a fresh :class:`Tracer` run value for value,
choice for choice and output for output, on scalars and points drawn
from ``PYTEST_SEED`` (default pinned; CI rotates it).

A wrong select map would put the same wrong value in the recording and
on the tape, so the tape's golden check cannot catch it.  Two planted
maps show that the fill does: the sign-select swap (for sign -1 the
``yx_plus`` mux must pick leaf 1 and the ``yx_minus`` mux leaf 0) and a
digit read one position off.  Each fails :func:`build_replay`, and
through ``run_flow`` the fill stores nothing and counts a fallback.
"""

import dataclasses
import os
import random

import pytest

import repro.trace.replay as replay_mod
from repro.curve.params import SUBGROUP_ORDER_N as N
from repro.curve.point import AffinePoint, random_subgroup_point
from repro.curve.endomorphisms import default_decomposer
from repro.curve.recoding import RecodedScalar, recode_glv_sac
from repro.flow import CACHE_EVENTS
from repro.obs import MetricsRegistry
from repro.serve import BatchEngine
from repro.trace.program import trace_double_scalar_mult, trace_scalar_mult
from repro.trace.replay import (
    DIGIT,
    SIGN,
    ReplayError,
    build_replay,
)
from repro.trace.tracer import ValueRecorder

SEED = int(os.environ.get("PYTEST_SEED", "0x5E1EC7"), 0)


def _rng(tag: int) -> random.Random:
    """Per-test RNG: PYTEST_SEED diversifies, the tag decorrelates."""
    return random.Random(SEED * 1_000_003 + tag)


def _single(k, p, replay=None, include_endomorphisms=True):
    return trace_scalar_mult(
        k=k, point=p, self_check=False, replay=replay,
        include_endomorphisms=include_endomorphisms,
    )


def _double(u1, u2, p1, p2, replay=None):
    return trace_double_scalar_mult(
        u1=u1, u2=u2, p1=p1, p2=p2, self_check=False, replay=replay
    )


@pytest.fixture(scope="module")
def single():
    """A filled single-base trace and its replay."""
    prog = _single(0x5EED, AffinePoint.generator())
    return prog, build_replay(prog.tracer, prog.main_loop)


@pytest.fixture(scope="module")
def double():
    prog = _double(3, 0x5EED, AffinePoint.generator(), AffinePoint.generator())
    return prog, build_replay(prog.tracer, prog.main_loop)


def _scalars(rng):
    return [rng.randrange(N), N + rng.randrange(2**256 - N), 1, N + 1, N - 1]


class TestReplayEqualsTrace:
    def test_single_base(self, single):
        _, replay = single
        rng = _rng(1)
        for k in _scalars(rng):
            p = random_subgroup_point(rng)
            full = _single(k, p)
            recording = _single(k, p, replay).tracer
            assert recording == ValueRecorder.of(full.tracer)

    def test_double_base(self, double):
        _, replay = double
        rng = _rng(2)
        for u1, u2 in zip(_scalars(rng), reversed(_scalars(rng))):
            p1, p2 = AffinePoint.generator(), random_subgroup_point(rng)
            full = _double(u1, u2, p1, p2)
            recording = _double(u1, u2, p1, p2, replay).tracer
            assert recording == ValueRecorder.of(full.tracer)

    def test_preloaded_endomorphism_images(self):
        """The variant whose phi/psi images are inputs replays too."""
        g = AffinePoint.generator()
        prog = _single(7, g, include_endomorphisms=False)
        replay = build_replay(prog.tracer, prog.main_loop)
        rng = _rng(3)
        k, p = rng.randrange(N), random_subgroup_point(rng)
        full = _single(k, p, include_endomorphisms=False)
        recording = _single(k, p, replay, include_endomorphisms=False).tracer
        assert recording == ValueRecorder.of(full.tracer)

    def test_retrace_rebuilds_the_full_trace(self, single):
        _, replay = single
        g = AffinePoint.generator()
        prog = _single(0xABC, g, replay)
        assert prog.main_loop is None
        full = prog.retrace()
        assert ValueRecorder.of(full.tracer) == prog.tracer
        assert full.main_loop is not None

    def test_record_rejects_bad_recodings(self, single):
        prog, replay = single
        inputs = [AffinePoint.generator().x, AffinePoint.generator().y]
        (rec,) = prog.main_loop.recodings
        top_minus = RecodedScalar(rec.digits, rec.signs[:-1] + (-1,))
        with pytest.raises(ValueError, match="top sign"):
            replay.record(inputs, [top_minus])
        short = RecodedScalar(rec.digits[:-1], rec.signs[:-1])
        with pytest.raises(ValueError):
            replay.record(inputs, [short])
        with pytest.raises(ValueError):
            replay.record(inputs[:1], [rec])
        with pytest.raises(ValueError):
            replay.record(inputs, [rec, rec])


# ---------------------------------------------------------------------
# Planted select maps
# ---------------------------------------------------------------------


def _swap_sign_select(selects, recoding=0, position=5):
    """The sign-select swap at one position: for sign -1 the yx_plus
    mux picks leaf 0 and the yx_minus mux leaf 1 (the right map is the
    other way round)."""
    group = [
        i for i, s in enumerate(selects)
        if s.role == SIGN and s.recoding == recoding and s.position == position
    ]
    assert len(group) == 3  # yx_plus, yx_minus, t2d muxes, in uid order
    out = list(selects)
    plus, minus = (selects[i] for i in group[:2])
    out[group[0]] = plus._replace(leaves={1: plus.leaves[1], -1: minus.leaves[-1]})
    out[group[1]] = minus._replace(leaves={1: minus.leaves[1], -1: plus.leaves[-1]})
    return tuple(out)


def _digit_off_by_one(selects, recoding=0, position=5):
    """One table mux reads the digit one position up."""
    out = list(selects)
    i = next(
        i for i, s in enumerate(selects)
        if s.role == DIGIT and s.recoding == recoding and s.position == position
    )
    out[i] = selects[i]._replace(position=position + 1)
    return tuple(out)


PLANTS = {"sign_select_swap": _swap_sign_select, "digit_off_by_one": _digit_off_by_one}


def _plant(monkeypatch, plant, **where):
    real = replay_mod.derive_selects

    def planted(*args):
        return plant(real(*args), **where)

    monkeypatch.setattr(replay_mod, "derive_selects", planted)


class TestPlantedMaps:
    @pytest.mark.parametrize("name", sorted(PLANTS))
    def test_single_base_fill_fails(self, monkeypatch, name):
        prog = _single(0x5EED, AffinePoint.generator())
        _plant(monkeypatch, PLANTS[name])
        with pytest.raises(ReplayError):
            build_replay(prog.tracer, prog.main_loop)

    @pytest.mark.parametrize("name", sorted(PLANTS))
    def test_double_base_fill_fails(self, monkeypatch, name):
        """Planted in the second recording, late in the loop."""
        prog = _double(3, 0x5EED, AffinePoint.generator(), AffinePoint.generator())
        _plant(monkeypatch, PLANTS[name], recoding=1, position=60)
        with pytest.raises(ReplayError):
            build_replay(prog.tracer, prog.main_loop)

    def test_uncaught_swap_would_serve_a_wrong_answer(self, single):
        """Why the fill checks the map: the tape agrees with a planted
        replay's recording, whose result is not [k]P."""
        _, replay = single
        planted = dataclasses.replace(
            replay, selects=_swap_sign_select(replay.selects)
        )
        decomposer = default_decomposer()
        k = next(
            k for k in range(3, 1000)
            if recode_glv_sac(decomposer.decompose(k).scalars).signs[5] == -1
        )
        g = AffinePoint.generator()
        recording = _single(k, g, planted).tracer
        assert recording != _single(k, g, replay).tracer
        engine = BatchEngine(metrics=MetricsRegistry())
        try:
            engine.warm()
            entry = engine.cache.get(engine._shape_keys["scalarmult"])
            tape = entry.compiled.run(recording)  # every golden check passes
        finally:
            engine.close()
        got = AffinePoint(tape.outputs["result_x"], tape.outputs["result_y"], check=False)
        assert got != (k % N) * g

    @pytest.mark.parametrize("name", sorted(PLANTS))
    def test_engine_fill_stores_nothing(self, monkeypatch, name):
        """Through run_flow: a fallback is counted, nothing is stored,
        and the answer (from the full flow) is still [k]P."""
        metrics = MetricsRegistry()
        engine = BatchEngine(metrics=metrics)
        try:
            _plant(monkeypatch, PLANTS[name])
            g = AffinePoint.generator()
            for k in (3, 0xFACADE):
                assert engine.scalarmult(k, g) == (k % N) * g
            assert len(engine.cache) == 0
            assert metrics.value(CACHE_EVENTS, event="fallback") == 2
            monkeypatch.undo()
            engine.scalarmult(5, g)
            assert len(engine.cache) == 1
            assert engine.scalarmult_flow(7, g).cache_hit
        finally:
            engine.close()


class TestServing:
    def test_one_cache_lookup_per_request(self):
        engine = BatchEngine(metrics=MetricsRegistry())
        try:
            engine.warm()
            calls = []
            real_get = engine.cache.get

            def get(key):
                calls.append(key)
                return real_get(key)

            engine.cache.get = get
            g = AffinePoint.generator()
            for k in (11, 13, 17):
                assert engine.scalarmult_flow(k, g).cache_hit
            assert len(calls) == 3
        finally:
            engine.close()

    def test_uncached_flow_builds_no_replay(self, monkeypatch):
        from repro.flow import run_flow

        def refuse(*args):
            raise AssertionError("an uncached flow built a replay")

        monkeypatch.setattr("repro.flow.build_replay", refuse)
        flow = run_flow(_single(9, AffinePoint.generator()), metrics=MetricsRegistry())
        assert flow.replay is None
