"""Tests for the micro-op model itself (unit mapping, helpers)."""

import pytest

from repro.sched.jobshop import resolve_muxes
from repro.trace import UNIT_OF, MicroOp, OpKind, Tracer, Unit


class TestOpModel:
    def test_unit_map_complete(self):
        """Every op kind must map to a unit (enum drift guard)."""
        for kind in OpKind:
            assert kind in UNIT_OF

    def test_multiplier_kinds(self):
        assert UNIT_OF[OpKind.MUL] is Unit.MULTIPLIER
        assert UNIT_OF[OpKind.SQR] is Unit.MULTIPLIER

    def test_addsub_kinds(self):
        for kind in (OpKind.ADD, OpKind.SUB, OpKind.NEG, OpKind.CONJ):
            assert UNIT_OF[kind] is Unit.ADDSUB

    def test_free_kinds(self):
        for kind in (OpKind.CONST, OpKind.INPUT, OpKind.SELECT):
            assert UNIT_OF[kind] is Unit.NONE

    def test_microop_properties(self):
        op = MicroOp(uid=3, kind=OpKind.MUL, srcs=(1, 2), value=(6, 0))
        assert op.unit is Unit.MULTIPLIER
        assert op.is_arithmetic
        assert "mul" in repr(op)

    def test_nonarithmetic(self):
        op = MicroOp(uid=0, kind=OpKind.CONST, srcs=(), value=(1, 0), name="one")
        assert not op.is_arithmetic


class TestSelectResolution:
    def _traced(self):
        tr = Tracer()
        a = tr.input((1, 0), "a")
        b = tr.input((2, 0), "b")
        s1 = tr.select(a, a, b)
        s2 = tr.select(s1, s1, b)   # nested select
        tr.mul(s2, b)
        return tr, a, b, s1, s2

    def test_chosen_resolution_nested(self):
        tr, a, b, s1, s2 = self._traced()
        assert resolve_muxes(tr.trace).leaf(s2.uid) == a.uid

    def test_all_resolution_nested(self):
        tr, a, b, s1, s2 = self._traced()
        alts = resolve_muxes(tr.trace).leaves(s2.uid)
        assert set(alts) == {a.uid, b.uid}

    def test_non_select_passthrough(self):
        tr, a, b, s1, s2 = self._traced()
        muxes = resolve_muxes(tr.trace)
        assert muxes.leaf(a.uid) == a.uid
        assert muxes.leaves(a.uid) == (a.uid,)

    def test_select_requires_membership(self):
        tr = Tracer()
        a = tr.input((1, 0), "a")
        b = tr.input((2, 0), "b")
        c = tr.input((3, 0), "c")
        with pytest.raises(ValueError):
            tr.select(c, a, b)

    def test_select_value_passthrough(self):
        tr = Tracer()
        a = tr.input((7, 8), "a")
        b = tr.input((9, 1), "b")
        assert tr.select(b, a, b).value == (9, 1)


class TestSectionNesting:
    def test_nested_sections(self):
        tr = Tracer()
        a = tr.input((1, 0), "a")
        tr.begin_section("outer")
        tr.add(a, a)
        tr.begin_section("inner")
        tr.mul(a, a)
        tr.end_section()
        tr.sub(a, a)
        tr.end_section()
        names = {s[0]: (s[1], s[2]) for s in tr.sections}
        assert names["inner"][0] >= names["outer"][0]
        assert names["inner"][1] <= names["outer"][1]
