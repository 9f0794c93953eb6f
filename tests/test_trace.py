"""Tests for the execution-trace recorder and traced programs."""

import random

import pytest

from repro.curve.point import random_subgroup_point
from repro.sched import MachineSpec
from repro.serve.cache import trace_shape_key
from repro.trace import (
    OpKind,
    Tracer,
    trace_double_scalar_mult,
    trace_loop_iteration,
    trace_msm_window,
    trace_scalar_mult,
)


class TestTracer:
    def test_basic_recording(self):
        tr = Tracer()
        a = tr.input((3, 0), "a")
        b = tr.input((4, 0), "b")
        c = tr.mul(a, b)
        d = tr.add(c, a)
        assert c.value == (12, 0)
        assert d.value == (15, 0)
        assert [op.kind for op in tr.trace] == [
            OpKind.INPUT,
            OpKind.INPUT,
            OpKind.MUL,
            OpKind.ADD,
        ]
        assert tr.trace[2].srcs == (0, 1)
        assert tr.trace[3].srcs == (2, 0)

    def test_all_op_kinds(self):
        tr = Tracer()
        a = tr.input((5, 7), "a")
        assert tr.sqr(a).value == ((5 * 5 - 7 * 7) % (2**127 - 1), 70)
        assert tr.neg(a).value == ((2**127 - 1) - 5, (2**127 - 1) - 7)
        assert tr.conj(a).value == (5, (2**127 - 1) - 7)
        assert tr.sub(a, a).value == (0, 0)

    def test_const_dedup(self):
        tr = Tracer()
        c1 = tr.const((9, 9), "nine")
        c2 = tr.const((9, 9), "nine-again")
        assert c1.uid == c2.uid
        assert len(tr.trace) == 1

    def test_sections(self):
        tr = Tracer()
        a = tr.input((1, 0), "a")
        tr.begin_section("work")
        tr.add(a, a)
        tr.mul(a, a)
        tr.end_section()
        assert tr.sections == [("work", 1, 3)]

    def test_counters(self):
        tr = Tracer()
        a = tr.input((2, 0), "a")
        tr.mul(a, a)
        tr.sqr(a)
        tr.add(a, a)
        assert tr.multiplier_ops() == 2
        assert tr.addsub_ops() == 1
        assert tr.arithmetic_size() == 3
        assert tr.multiplication_share() == pytest.approx(2 / 3)

    def test_outputs(self):
        tr = Tracer()
        a = tr.input((2, 0), "a")
        b = tr.mul(a, a)
        tr.mark_output(b, "result")
        assert tr.outputs == [b.uid]
        assert tr.trace[b.uid].name == "result"


class TestLoopIterationTrace:
    """Fig. 2(b): the kernel is exactly 15 muls and 13 add/subs."""

    def test_op_counts(self):
        prog = trace_loop_iteration()
        assert prog.tracer.multiplier_ops() == 15
        assert prog.tracer.addsub_ops() == 13

    def test_trace_self_checks(self):
        prog = trace_loop_iteration()
        # The last outputs decode to 2Q - P (negate=True path).
        assert prog.expected is not None

    def test_sections_present(self):
        prog = trace_loop_iteration()
        names = [s[0] for s in prog.tracer.sections]
        assert names == ["double", "select", "add"]

    def test_negate_false_variant_same_op_counts(self):
        """Constant-time claim: op counts identical for both signs."""
        a = trace_loop_iteration(negate=True)
        b = trace_loop_iteration(negate=False)
        assert a.tracer.multiplier_ops() == b.tracer.multiplier_ops()
        assert a.tracer.addsub_ops() == b.tracer.addsub_ops()


class TestFullTrace:
    @pytest.fixture(scope="class")
    def prog(self):
        return trace_scalar_mult(k=0xFEDCBA9876543210 << 190)

    def test_size_is_thousands(self, prog):
        """Paper: 'thousands of microinstructions'."""
        assert 2000 <= prog.arithmetic_size <= 3000

    def test_multiplication_share_near_57_percent(self, prog):
        """Paper Section III-B: F_{p^2} muls are ~57% of arithmetic ops."""
        share = prog.tracer.multiplication_share()
        assert 0.54 <= share <= 0.61

    def test_traced_result_matches_reference(self, prog):
        # trace_scalar_mult raises internally on divergence; make the
        # golden values of the outputs explicit here.
        x_uid, y_uid = prog.tracer.outputs
        assert prog.tracer.trace[x_uid].value == prog.expected.x
        assert prog.tracer.trace[y_uid].value == prog.expected.y

    def test_sections_cover_pipeline(self, prog):
        names = {s[0] for s in prog.tracer.sections}
        assert names == {"endo", "table", "loop", "normalize"}

    def test_loop_section_dominates(self, prog):
        counts = prog.section_counts()
        loop_m, loop_a = counts["loop"]
        assert loop_m == 64 * 15  # 64 iterations x 15 muls
        assert loop_a == 64 * 13 + 2  # + seed conversion (2 add/sub)

    def test_without_endomorphisms(self):
        prog = trace_scalar_mult(k=12345, include_endomorphisms=False)
        names = {s[0] for s in prog.tracer.sections}
        assert "endo" not in names
        x_uid, y_uid = prog.tracer.outputs
        assert prog.tracer.trace[x_uid].value == prog.expected.x


class TestMsmWindowTrace:
    """The fixed-shape Pippenger bucket-window kernel."""

    def test_shape_is_input_independent(self):
        # The digits are fixed by construction, so any two traces of
        # the same (n_points, window) must agree op-for-op — that is
        # what lets the flow-artifact cache serve every MSM request.
        import random

        a = trace_msm_window(n_points=4, window=3, rng=random.Random(1))
        b = trace_msm_window(n_points=4, window=3, rng=random.Random(2))
        assert [op.kind for op in a.tracer.trace] == [
            op.kind for op in b.tracer.trace
        ]
        assert [op.srcs for op in a.tracer.trace] == [
            op.srcs for op in b.tracer.trace
        ]

    def test_sections_cover_bucket_pipeline(self):
        prog = trace_msm_window(n_points=4, window=3)
        names = {s[0] for s in prog.tracer.sections}
        assert names == {"double", "bucket", "aggregate"}

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            trace_msm_window(n_points=0)
        with pytest.raises(ValueError):
            trace_msm_window(n_points=4, window=1)


class TestPinnedShapes:
    """The serving shapes, pinned: any refactor of the builders must
    emit the same ops in the same order (the cache key and the per-section
    op counts), for any scalar and any point."""

    SINGLE = (
        "46e65433a2039ed5b3a6b45de7afdbc102469a464d60e3e901a538745845b101",
        {"endo": (162, 67), "table": (78, 75), "loop": (960, 834), "normalize": (142, 1)},
    )
    DOUBLE = (
        "49a9cab1afef204d91c5789241197f2e20b1fca88b9cb859607eca4e3593ba33",
        {"endo": (324, 134), "table": (156, 150), "loop": (1483, 1290),
         "normalize": (142, 1)},
    )

    @staticmethod
    def _pinned(prog):
        key = trace_shape_key(prog.tracer.trace, MachineSpec(), "auto")
        return key, prog.section_counts()

    @pytest.mark.parametrize("seed", [None, 5])
    def test_single_base(self, seed):
        args = {}
        if seed is not None:
            rng = random.Random(seed)
            args = dict(k=rng.randrange(2**256), point=random_subgroup_point(rng))
        assert self._pinned(trace_scalar_mult(self_check=False, **args)) == self.SINGLE

    @pytest.mark.parametrize("seed", [None, 5])
    def test_double_base(self, seed):
        args = {}
        if seed is not None:
            rng = random.Random(seed)
            args = dict(u1=rng.randrange(2**256), u2=rng.randrange(2**256),
                        p1=random_subgroup_point(rng), p2=random_subgroup_point(rng))
        prog = trace_double_scalar_mult(self_check=False, **args)
        assert self._pinned(prog) == self.DOUBLE
