"""Tests for the trace-level optimizer stage (repro.opt) and the
flow-layer bugfix sweep that rode along with it.

Covers: CSE / const-fold / DVE rewrite soundness (values preserved,
outputs and keep-alives protected, SELECT never merged), memoized
sub-DAG scheduling (detection, stitched-schedule validity, fallback),
flow-level equivalence at every optimize level, cache keying (levels
never share a key; "auto" resolves before keying), the RNG-stream and
balanced-negate shape fixes in the trace producers, and the cache
counters API reconciliation.
"""

import random

import pytest

from repro.flow import _verify_outputs, resolve_scheduler, run_flow
from repro.opt import (
    OPT_LEVELS,
    detect_repeats,
    memoized_schedule,
    optimize_trace,
)
from repro.sched.jobshop import MachineSpec, problem_from_trace
from repro.serve.cache import FlowArtifactCache, trace_shape_key
from repro.trace import (
    trace_double_scalar_mult,
    trace_loop_iteration,
    trace_loop_iterations,
)
from repro.trace.ops import OpKind
from repro.trace.program import TraceProgram
from repro.trace.tracer import Tracer


def _toy_program() -> TraceProgram:
    """A small hand-built trace with duplicates and a dead op."""
    t = Tracer()
    a = t.input((3, 4), "a")
    b = t.input((5, 6), "b")
    s1 = t.add(a, b)
    s2 = t.add(a, b)          # structural duplicate of s1
    dead = t.mul(s1, s1)      # never consumed, not marked
    assert dead.uid >= 0
    c1 = t.const((7, 0), "c7")
    c2 = t.mul(c1, c1)        # const-only operands: foldable
    out = t.mul(s2, t.add(s1, c2))
    t.mark_output(out, "out")
    return TraceProgram(tracer=t, description="toy")


class TestRewritePasses:
    def test_levels_validated(self):
        with pytest.raises(ValueError):
            optimize_trace(_toy_program(), "aggressive")

    def test_none_is_identity(self):
        prog = _toy_program()
        same, stats = optimize_trace(prog, "none")
        assert same is prog
        assert stats.ops_removed == 0

    def test_cse_merges_duplicates_and_dve_removes_dead(self):
        prog = _toy_program()
        opt, stats = optimize_trace(prog, "cse")
        assert stats.cse_merged >= 1       # s2 merged into s1
        assert stats.const_folded >= 1     # c1*c1 folded
        assert stats.dve_removed >= 1      # dead mul deleted
        kinds = [op.kind for op in opt.tracer.trace]
        # Inputs always survive (register-file preload interface).
        assert kinds.count(OpKind.INPUT) == 2

    def test_values_and_output_names_preserved(self):
        prog = _toy_program()
        opt, _ = optimize_trace(prog, "cse")
        (out_uid,) = opt.tracer.outputs
        (orig_uid,) = prog.tracer.outputs
        assert opt.tracer.trace[out_uid].value == prog.tracer.trace[orig_uid].value
        assert opt.tracer.trace[out_uid].name == "out"
        # Rebuilt uids are positional (uid == index), like a fresh trace.
        for i, op in enumerate(opt.tracer.trace):
            assert op.uid == i
            for s in op.srcs:
                assert s < i

    def test_mark_live_protects_balanced_ops(self):
        t = Tracer()
        a = t.input((3, 4), "a")
        kept = t.neg(a)
        t.mark_live(kept)
        gone = t.mul(a, a)
        assert gone.uid >= 0
        out = t.add(a, a)
        t.mark_output(out, "out")
        prog = TraceProgram(tracer=t, description="balanced")
        opt, stats = optimize_trace(prog, "cse")
        assert stats.dve_removed == 1  # only the unmarked mul
        assert OpKind.NEG in [op.kind for op in opt.tracer.trace]
        # The keep-alive list survives the rebuild (renumbered).
        assert len(opt.tracer.live) == 1

    def test_selects_never_merged(self):
        t = Tracer()
        a = t.input((3, 4), "a")
        b = t.input((5, 6), "b")
        s1 = t.select(a, a, b)
        s2 = t.select(b, a, b)  # same source set, different choice
        out = t.add(s1, s2)
        t.mark_output(out, "out")
        prog = TraceProgram(tracer=t, description="selects")
        opt, stats = optimize_trace(prog, "cse")
        assert stats.cse_merged == 0
        kinds = [op.kind for op in opt.tracer.trace]
        assert kinds.count(OpKind.SELECT) == 2

    def test_rewrites_are_shape_stable_across_inputs(self):
        """Two traces of one workload optimize to one shape."""
        m = MachineSpec()
        keys = set()
        for seed in (1, 2, 3):
            prog = trace_loop_iteration(random.Random(seed))
            opt, _ = optimize_trace(prog, "cse")
            keys.add(trace_shape_key(opt.tracer.trace, m, "list", "cse"))
        assert len(keys) == 1


class TestMemoizedScheduling:
    @pytest.fixture(scope="class")
    def looped(self):
        prog = trace_loop_iterations(8)
        opt, _ = optimize_trace(prog, "full")
        return opt

    def test_detects_loop_body_repeats(self, looped):
        problem = problem_from_trace(looped.tracer.trace, MachineSpec())
        found = detect_repeats(problem.tasks)
        assert found is not None
        _, period, count = found
        assert count >= 4

    def test_stitched_schedule_validates_and_reuses(self, looped):
        problem = problem_from_trace(looped.tracer.trace, MachineSpec())
        sched, stats = memoized_schedule(problem, sections=looped.tracer.sections)
        sched.validate()  # the explicit whole-schedule proof
        assert stats.segments_reused > 0
        assert stats.segments_solved >= 1
        assert (
            stats.segments_solved + stats.segments_reused == stats.segments_total
        )

    def test_no_repeats_falls_back_to_plain_schedule(self):
        prog = trace_loop_iteration()  # one iteration: nothing repeats
        opt, _ = optimize_trace(prog, "full")
        problem = problem_from_trace(opt.tracer.trace, MachineSpec())
        sched, stats = memoized_schedule(problem, sections=opt.tracer.sections)
        sched.validate()
        assert stats.segments_total == 1
        assert stats.segments_reused == 0

    def test_cp_segments_match_list_segment_validity(self, looped):
        problem = problem_from_trace(looped.tracer.trace, MachineSpec())
        sched, _ = memoized_schedule(
            problem, sections=looped.tracer.sections, solver="cp"
        )
        sched.validate()


class TestFlowEquivalence:
    @pytest.fixture(scope="class")
    def prog(self):
        return trace_loop_iterations(8)

    @pytest.fixture(scope="class")
    def baseline(self, prog):
        return run_flow(prog)

    @pytest.mark.parametrize("level", ["cse", "full"])
    def test_optimized_flow_matches_reference_outputs(
        self, prog, baseline, level
    ):
        flow = run_flow(prog, optimize=level)
        # Golden per-writeback checks ran inside the simulation; close
        # the loop on the output mapping explicitly.
        _verify_outputs(flow.optimized_program, flow.microprogram, flow.simulation)
        assert flow.simulation.outputs == baseline.simulation.outputs
        assert flow.trace_program is prog
        assert flow.opt_stats is not None
        assert flow.problem.size <= baseline.problem.size

    def test_none_is_byte_identical_to_default(self, prog, baseline):
        flow = run_flow(prog, optimize="none")
        assert flow.microprogram == baseline.microprogram
        assert flow.schedule.stable_hash() == baseline.schedule.stable_hash()
        assert flow.optimized_program is None
        assert flow.opt_stats is None

    def test_full_level_reuses_segments(self, prog):
        flow = run_flow(prog, optimize="full")
        assert flow.opt_stats.segments_reused > 0

    def test_cached_optimized_flow_hits_and_verifies(self, prog):
        cache = FlowArtifactCache()
        miss = run_flow(prog, cache=cache, optimize="full")
        assert not miss.cache_hit
        hit = run_flow(trace_loop_iterations(8), cache=cache, optimize="full")
        assert hit.cache_hit and not hit.fallback
        assert hit.simulation.outputs == miss.simulation.outputs


class TestCacheKeying:
    def test_levels_never_share_a_key(self):
        prog = trace_loop_iteration()
        m = MachineSpec()
        keys = {
            lvl: trace_shape_key(prog.tracer.trace, m, "list", lvl)
            for lvl in OPT_LEVELS
        }
        assert len(set(keys.values())) == len(OPT_LEVELS)

    def test_optimized_flows_never_share_cache_entries(self):
        cache = FlowArtifactCache()
        prog = trace_loop_iterations(6)
        for lvl in OPT_LEVELS:
            flow = run_flow(prog, cache=cache, optimize=lvl)
            assert not flow.cache_hit
        assert cache.stats_snapshot()["entries"] == len(OPT_LEVELS)

    def test_auto_resolves_before_keying(self):
        """Regression: an "auto" request and the explicit scheduler it
        resolves to must share one cache entry (identical artifacts)."""
        prog = trace_loop_iteration()
        m = MachineSpec()
        resolved = resolve_scheduler("auto", prog)
        assert trace_shape_key(prog.tracer.trace, m, "auto") == trace_shape_key(
            prog.tracer.trace, m, resolved
        )
        cache = FlowArtifactCache()
        first = run_flow(prog, cache=cache, scheduler="auto")
        second = run_flow(
            trace_loop_iteration(), cache=cache, scheduler=resolved
        )
        assert not first.cache_hit
        assert second.cache_hit
        assert cache.stats_snapshot()["entries"] == 1

    def test_auto_resolution_rule(self):
        kernel = trace_loop_iteration()
        assert resolve_scheduler("auto", kernel) == "cp"
        big = trace_loop_iterations(8)
        assert resolve_scheduler("auto", big) == "list"
        assert resolve_scheduler("list", kernel) == "list"


class TestTraceProducerFixes:
    def test_negate_shape_invariance_at_every_level(self):
        """The balanced sign-select keeps one shape for both signs,
        before and after every optimizer level."""
        m = MachineSpec()
        for lvl in OPT_LEVELS:
            keys = set()
            for neg in (True, False):
                prog = trace_loop_iteration(negate=neg)
                if lvl != "none":
                    prog, _ = optimize_trace(prog, lvl)
                keys.add(trace_shape_key(prog.tracer.trace, m, "list", lvl))
            assert len(keys) == 1, f"shape diverged at level {lvl}"

    def test_double_scalar_default_streams_independent(self):
        """Regression: passing u1 explicitly must not shift u2's default."""
        # The derived-stream defaults, pinned.
        u1_default = random.Random(0xD5F1).randrange(2**256)
        u2_default = random.Random(0xD5F2).randrange(2**256)
        assert u1_default == int(
            "0xbe0cfe3dafb957de577caef683d2ff63"
            "f2f4dda8a56d868753d2276ddac40a0d",
            16,
        )
        assert u2_default == int(
            "0xbc3d92d748415a8199c1ace993f5b55a"
            "45c7fb624140a9c9d428ee927e182aa5",
            16,
        )
        both_default = trace_double_scalar_mult()
        assert both_default.scalar == u1_default
        u1_explicit = trace_double_scalar_mult(u1=u1_default)
        # Same u1, untouched u2 stream: identical expected point.
        assert u1_explicit.expected == both_default.expected


class TestCacheCountersApi:
    def test_counters_is_a_subset_of_stats_snapshot(self):
        cache = FlowArtifactCache()
        run_flow(trace_loop_iteration(random.Random(1)), cache=cache)
        run_flow(trace_loop_iteration(random.Random(2)), cache=cache)
        snap = cache.stats_snapshot()
        assert cache.counters() == (
            snap["hits"],
            snap["misses"],
            snap["evictions"],
        )
        assert set(snap) == {"hits", "misses", "evictions", "fallbacks", "entries"}
        assert snap["hits"] == 1 and snap["misses"] == 1
        assert snap["entries"] == 1


class TestOptObservability:
    def test_pass_statistics_visible_in_metrics_report(self):
        from repro.obs import MetricsRegistry
        from repro.obs.export import render_report

        reg = MetricsRegistry()
        run_flow(trace_loop_iterations(8), metrics=reg, optimize="full")
        report = render_report(reg.snapshot())
        assert "trace optimizer" in report
        assert 'repro_opt_runs_total{level="full"} 1' in report
        assert 'repro_opt_segments_total{outcome="reused"}' in report
        # The optimize stage records a wall-time span like any other.
        assert "optimize" in report
