"""Property-based fuzzing of the schedulers on random DAGs.

Every scheduler must produce a *valid* schedule (precedences with
latencies, pipelined unit occupancy, register-file ports, forwarding
semantics) for arbitrary dependency structures — not just the curve
workloads.  Hypothesis generates random DAG-shaped problems; the
validator is the oracle.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched import (
    JobShopProblem,
    MachineSpec,
    Task,
    block_limited_schedule,
    cp_schedule,
    list_schedule,
    sequential_schedule,
)
from repro.trace.ops import OpKind, Unit


@st.composite
def random_problems(draw, muxes=False):
    """A random DAG of 1-26 tasks over the two units.

    With ``muxes``, some operands are routed through a mux: a task then
    also depends on alternatives it does not read (``reads`` a strict
    subset of ``deps``, as :func:`problem_from_trace` builds for a
    SELECT), an operand may be read twice, and the add/sub latency and
    the port counts vary too.
    """
    n = draw(st.integers(min_value=1, max_value=26))
    mult_lat = draw(st.integers(min_value=1, max_value=4))
    fwd = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**16))
    machine = MachineSpec(mult_latency=mult_lat, forwarding=fwd)
    if muxes:
        machine = MachineSpec(
            mult_latency=mult_lat,
            addsub_latency=draw(st.integers(min_value=1, max_value=4)),
            read_ports=draw(st.integers(min_value=2, max_value=4)),
            write_ports=draw(st.integers(min_value=1, max_value=2)),
            forwarding=fwd,
        )
    rng = random.Random(seed)
    tasks = []
    for i in range(n):
        unit = rng.choice([Unit.MULTIPLIER, Unit.ADDSUB])
        kind = OpKind.MUL if unit is Unit.MULTIPLIER else OpKind.ADD
        max_deps = min(i, 2)
        k = rng.randint(0, max_deps)
        deps = tuple(sorted(rng.sample(range(i), k))) if k else ()
        reads = deps
        if muxes and i:
            reads = tuple(rng.choice(deps) for _ in deps) if deps else ()
            alts = rng.sample(range(i), rng.randint(0, min(i, 3)))
            deps = tuple(sorted(set(deps) | set(alts)))
        tasks.append(
            Task(
                index=i,
                uid=i,
                unit=unit,
                deps=deps,
                kind=kind,
                reads=reads,
                external_reads=2 - len(reads),
            )
        )
    return JobShopProblem(tasks=tasks, machine=machine)


class TestSchedulerFuzz:
    @given(random_problems())
    @settings(max_examples=40, deadline=None)
    def test_sequential_always_valid(self, prob):
        sequential_schedule(prob).validate()

    @given(random_problems())
    @settings(max_examples=40, deadline=None)
    def test_list_always_valid(self, prob):
        list_schedule(prob).validate()

    @given(random_problems())
    @settings(max_examples=25, deadline=None)
    def test_cp_always_valid_and_not_worse(self, prob):
        res = cp_schedule(prob, node_budget=20_000)
        res.schedule.validate()
        assert res.schedule.makespan <= list_schedule(prob).makespan

    @given(random_problems())
    @settings(max_examples=25, deadline=None)
    def test_block_always_valid(self, prob):
        block_limited_schedule(prob, block_size=5).validate()

    @given(random_problems())
    @settings(max_examples=25, deadline=None)
    def test_ordering_invariant(self, prob):
        """list <= block <= sequential (more freedom never hurts)."""
        lst = list_schedule(prob).makespan
        seq = sequential_schedule(prob).makespan
        assert lst <= seq

    @given(random_problems())
    @settings(max_examples=25, deadline=None)
    def test_makespan_at_least_lower_bound(self, prob):
        lb = prob.lower_bound()
        for sched in (sequential_schedule(prob), list_schedule(prob)):
            assert sched.makespan >= lb


class TestRegallocInvariant:
    def test_no_live_range_overlap_on_same_register(self):
        """Two values sharing a register must have disjoint lifetimes."""
        from repro.isa import allocate_registers
        from repro.sched import problem_from_trace
        from repro.trace import trace_loop_iteration

        prog = trace_loop_iteration()
        prob = problem_from_trace(prog.tracer.trace)
        sched = list_schedule(prob)
        alloc = allocate_registers(
            prob, sched, prog.tracer.trace, prog.tracer.outputs
        )
        by_reg = {}
        for uid, reg in alloc.reg_of.items():
            by_reg.setdefault(reg, []).append(alloc.live_ranges[uid])
        for reg, ranges in by_reg.items():
            ranges.sort()
            for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
                # A later value may be defined only strictly after the
                # previous one's last use (write-after-read same cycle
                # is forbidden by the allocator's model).
                assert s2 > e1, f"register {reg}: [{s1},{e1}] overlaps [{s2},{e2}]"

    def test_full_program_invariant(self):
        from repro.isa import allocate_registers
        from repro.sched import problem_from_trace
        from repro.trace import trace_scalar_mult

        prog = trace_scalar_mult(k=0x1357 << 200)
        prob = problem_from_trace(prog.tracer.trace)
        sched = list_schedule(prob)
        alloc = allocate_registers(
            prob, sched, prog.tracer.trace, prog.tracer.outputs
        )
        by_reg = {}
        for uid, reg in alloc.reg_of.items():
            by_reg.setdefault(reg, []).append(alloc.live_ranges[uid])
        for reg, ranges in by_reg.items():
            ranges.sort()
            for (s1, e1), (s2, e2) in zip(ranges, ranges[1:]):
                assert s2 > e1


class TestMulticoreModel:
    def test_multicore_scaling(self):
        from repro.asic import calibrate
        from repro.asic.comparison import cores_for_throughput, multicore_entry

        tech = calibrate(cycles=2069)
        one = multicore_entry(tech, 1141, 1)
        four = multicore_entry(tech, 1141, 4)
        assert four.area_kge > 4 * 1141
        assert four.cores == 4
        # per-op latency unchanged
        assert four.latency_ms == one.latency_ms

    def test_cores_for_throughput(self):
        from repro.asic import calibrate
        from repro.asic.comparison import cores_for_throughput

        tech = calibrate(cycles=2069)
        assert cores_for_throughput(tech, 5e4) == 1
        assert cores_for_throughput(tech, 3e5) >= 3

    def test_invalid_cores(self):
        from repro.asic import calibrate
        from repro.asic.comparison import multicore_entry

        tech = calibrate(cycles=2069)
        with pytest.raises(ValueError):
            multicore_entry(tech, 1141, 0)
