"""Fault-injection tests: the verification layers must catch corruption.

A verification flow is only as good as its ability to *fail*.  These
tests mutate schedules, microcode, simulated state and the compiled
tapes cache hits run, and assert that the validator / golden-checking
simulator / tape checks detect every class of fault.
"""

import copy
import dataclasses
import random

import pytest

from repro.curve.params import SUBGROUP_ORDER_N as N
from repro.curve.point import AffinePoint, random_subgroup_point
from repro.flow import CACHE_EVENTS, run_flow
from repro.obs import MetricsRegistry
from repro.isa import assemble
from repro.rtl import DatapathSimulator, SimulationError
from repro.sched import ScheduleError, cp_schedule, problem_from_trace
from repro.sched.schedule import Schedule
from repro.serve import BatchEngine
from repro.trace import trace_loop_iteration


@pytest.fixture(scope="module")
def kernel_flow():
    return run_flow(trace_loop_iteration())


@pytest.fixture(scope="module")
def kernel_parts():
    prog = trace_loop_iteration()
    prob = problem_from_trace(prog.tracer.trace)
    sched = cp_schedule(prob).schedule
    return prog, prob, sched


class TestScheduleMutations:
    def test_shift_one_task_earlier_detected(self, kernel_parts):
        """Issuing any dependent task one cycle early must be caught."""
        prog, prob, sched = kernel_parts
        caught = 0
        for idx, t in enumerate(prob.tasks):
            if not t.deps:
                continue
            mutated = Schedule(
                problem=prob,
                start=[s - 1 if i == idx else s for i, s in enumerate(sched.start)],
            )
            if not mutated.is_valid():
                caught += 1
        assert caught >= len([t for t in prob.tasks if t.deps]) // 2

    def test_colliding_issue_detected(self, kernel_parts):
        prog, prob, sched = kernel_parts
        # Move the second multiplier task onto the first one's cycle.
        from repro.trace.ops import Unit

        mult_tasks = [t.index for t in prob.tasks if t.unit is Unit.MULTIPLIER]
        a, b = mult_tasks[0], mult_tasks[1]
        start = list(sched.start)
        start[b] = start[a]
        assert not Schedule(problem=prob, start=start).is_valid()

    def test_truncated_schedule_detected(self, kernel_parts):
        prog, prob, sched = kernel_parts
        with pytest.raises(ScheduleError):
            Schedule(problem=prob, start=sched.start[:-1]).validate()


class TestMicrocodeMutations:
    def _fresh_program(self):
        prog = trace_loop_iteration()
        prob = problem_from_trace(prog.tracer.trace)
        sched = cp_schedule(prob).schedule
        return assemble(prob, sched, prog.tracer.trace, prog.tracer.outputs)

    def test_swapped_writeback_register_detected(self):
        """Writing a result to the wrong register corrupts a later read;
        the golden check (or an output mismatch) must fire."""
        mp = self._fresh_program()
        sim = DatapathSimulator()
        baseline = sim.run(copy.deepcopy(mp))

        # Find a cycle with a writeback and redirect it.
        for w in mp.words:
            if w.writebacks:
                wb = w.writebacks[0]
                victim = (wb.register + 1) % mp.register_count
                from repro.isa import Writeback

                w.writebacks = (
                    Writeback(register=victim, unit=wb.unit, uid=wb.uid),
                ) + w.writebacks[1:]
                break
        try:
            result = DatapathSimulator().run(mp)
            # If it survived, at least one output must differ.
            assert result.outputs != baseline.outputs
        except (SimulationError, RuntimeError):
            pass  # detected

    def test_wrong_operand_register_detected(self):
        mp = self._fresh_program()
        from repro.isa import Operand, OperandSource, UnitIssue

        mutated = False
        for w in mp.words:
            if w.mult and all(
                op.source is OperandSource.REGISTER for op in w.mult.operands
            ):
                ops = list(w.mult.operands)
                ops[0] = Operand(
                    source=OperandSource.REGISTER,
                    register=(ops[0].register + 1) % mp.register_count,
                )
                w.mult = UnitIssue(
                    kind=w.mult.kind,
                    operands=tuple(ops),
                    dest_uid=w.mult.dest_uid,
                )
                mutated = True
                break
        assert mutated
        with pytest.raises((SimulationError, RuntimeError)):
            DatapathSimulator().run(mp)

    def test_dropped_issue_detected(self):
        """Deleting one multiplier issue starves a later writeback."""
        mp = self._fresh_program()
        for w in mp.words:
            if w.mult:
                w.mult = None
                break
        with pytest.raises((SimulationError, RuntimeError)):
            DatapathSimulator().run(mp)

    def test_corrupted_preload_detected(self, kernel_flow):
        mp = copy.deepcopy(kernel_flow.microprogram)
        reg, val = next(iter(mp.preload.items()))
        mp.preload[reg] = (val[0] ^ 1, val[1])
        with pytest.raises((SimulationError, RuntimeError)):
            DatapathSimulator().run(mp)


class TestArithmeticFaults:
    def test_multiplier_width_assertions(self):
        """Out-of-range operands violate the declared hardware widths."""
        from repro.rtl import karatsuba_fp2_multiply

        with pytest.raises(AssertionError):
            karatsuba_fp2_multiply((1 << 127, 0), (1, 0))

    def test_simulator_rejects_forward_from_idle_unit(self, kernel_flow):
        mp = copy.deepcopy(kernel_flow.microprogram)
        from repro.isa import Operand, OperandSource, UnitIssue
        from repro.trace import OpKind

        # Inject a forwarding operand in cycle 0 (nothing is in flight).
        w0 = mp.words[0]
        issue = UnitIssue(
            kind=OpKind.ADD,
            operands=(
                Operand(source=OperandSource.FORWARD_MULT),
                Operand(source=OperandSource.FORWARD_MULT),
            ),
            dest_uid=-1,
        )
        if w0.addsub is None:
            w0.addsub = issue
        else:
            w0.mult = UnitIssue(
                kind=OpKind.MUL, operands=issue.operands, dest_uid=-1
            )
        with pytest.raises(SimulationError):
            DatapathSimulator().run(mp)


def _tape_operand_slot(tape):
    """An op without a mux operand reads the slot after the right one."""
    muxed = {pos for pos, *_ in tape.muxes}
    op = next(i for i in range(100, len(tape.a)) if i not in muxed)
    a = list(tape.a)
    a[op] += 1
    return dataclasses.replace(tape, a=tuple(a))


def _tape_mux_candidate(tape):
    """The first mux routes every leaf to the next leaf's operands."""
    pos, cycle, selects, table = tape.muxes[0]
    keys = list(table)
    rotated = {k: table[keys[(i + 1) % len(keys)]] for i, k in enumerate(keys)}
    muxes = ((pos, cycle, selects, rotated),) + tape.muxes[1:]
    return dataclasses.replace(tape, muxes=muxes)


def _tape_unit_function(tape):
    """The first addition runs on the subtractor."""
    from repro.rtl.addsub import ADDSUB_OPS
    from repro.trace import OpKind

    fns = list(tape.fns)
    fns[fns.index(ADDSUB_OPS[OpKind.ADD])] = ADDSUB_OPS[OpKind.SUB]
    return dataclasses.replace(tape, fns=tuple(fns))


def _tape_dropped_result(tape):
    """Op 500 is gone; every later slot shifts down by one."""
    drop = 500

    def cut(seq):
        return seq[:drop] + seq[drop + 1:]

    muxes = tuple(
        (pos - (pos > drop), cycle, selects, table)
        for pos, cycle, selects, table in tape.muxes
        if pos != drop
    )
    return dataclasses.replace(
        tape, fns=cut(tape.fns), a=cut(tape.a), b=cut(tape.b),
        uids=cut(tape.uids), muxes=muxes,
    )


def _tape_preload(tape):
    """The first two preloaded values trade places."""
    first, second, *rest = tape.preload
    return dataclasses.replace(tape, preload=(second, first, *rest))


TAPE_MUTATIONS = {
    "operand_slot": _tape_operand_slot,
    "mux_candidate": _tape_mux_candidate,
    "unit_function": _tape_unit_function,
    "dropped_result": _tape_dropped_result,
    "preload": _tape_preload,
}


class TestCompiledProgramMutations:
    """A corrupted tape never answers a request.

    Each mutation is planted twice: in a warm engine's cached tape,
    where the next request's golden/output checks catch it; and in the
    tape built at a cache fill, where the fill-time comparison with the
    interpreted run refuses to store it.  Either way ``scalarmult``
    returns textbook [k]P through the full flow, and the fallback
    counter rises.
    """

    @pytest.fixture(scope="class")
    def engine(self):
        eng = BatchEngine(metrics=MetricsRegistry())
        eng.warm()
        yield eng
        eng.close()

    @staticmethod
    def _fallbacks(engine):
        return engine.metrics.value(CACHE_EVENTS, event="fallback")

    @pytest.mark.parametrize("mutation", sorted(TAPE_MUTATIONS))
    def test_caught_per_request(self, engine, mutation):
        key = engine._shape_keys["scalarmult"]
        entry = engine.cache.get(key)
        engine.cache.put(
            dataclasses.replace(
                entry, compiled=TAPE_MUTATIONS[mutation](entry.compiled)
            )
        )
        before = self._fallbacks(engine)
        k, p = 0xC0FFEE + len(mutation), AffinePoint.generator()
        flow = engine.scalarmult_flow(k, p)
        assert flow.fallback and not flow.cache_hit
        assert engine._point_from_outputs(flow) == (k % N) * p
        assert self._fallbacks(engine) == before + 1
        # The entry was replaced by a freshly compiled, sound tape.
        assert engine.scalarmult_flow(k + 1, p).cache_hit

    @pytest.mark.parametrize("mutation", sorted(TAPE_MUTATIONS))
    def test_refused_at_fill(self, monkeypatch, mutation):
        import repro.flow as flow_mod

        real = flow_mod.compile_program
        monkeypatch.setattr(
            flow_mod, "compile_program",
            lambda *args, **kw: TAPE_MUTATIONS[mutation](real(*args, **kw)),
        )
        engine = BatchEngine(metrics=MetricsRegistry())
        k = 0xF111 + len(mutation)
        p = random_subgroup_point(random.Random(k))
        assert engine.scalarmult(k, p) == (k % N) * p
        assert len(engine.cache) == 0
        assert self._fallbacks(engine) == 1
