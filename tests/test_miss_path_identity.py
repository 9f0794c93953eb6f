"""The miss path's artifacts are pinned bit for bit.

The flow's cold path (problem -> list schedule -> validate -> register
allocation -> assemble / template -> FSM ROM -> compiled tape) may be
made faster, but never different.  Three oracles hold it there:

* :func:`_reference_list_schedule`, a frozen copy of the straightforward
  cycle-driven list scheduler (re-sort the whole ready list every
  cycle), against which Hypothesis checks :func:`list_schedule` start
  list for start list — on random DAGs with mux alternatives
  (``reads`` a strict subset of ``deps``), with and without
  forwarding, unit latencies 1-4;
* :func:`_reference_encode_word`, the ROM word layout packed one field
  at a time, against which Hypothesis checks the FSM encoder on random
  control words (field overflows included);
* digests of every artifact of the five ``cold_compile`` ledger shapes
  and of the batch engine's cached ``scalarmult`` / ``double_scalarmult``
  fills, recorded before the miss path was reworked.

A digest that moves means an artifact moved: find out why before
re-recording it.
"""

import hashlib
import random
from typing import Dict, List, Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curve.point import AffinePoint, random_subgroup_point
from repro.flow import run_flow
from repro.isa import allocate_registers, assemble
from repro.isa.fsm import ADDSUB_OPCODES, SOURCE_CODES, _encode_word
from repro.isa.microcode import (
    ControlWord,
    Operand,
    OperandSource,
    UnitIssue,
    Writeback,
    build_template,
)
from repro.sched import list_schedule, problem_from_trace, resolve_muxes
from repro.sched.jobshop import JobShopProblem
from repro.serve import BatchEngine
from repro.serve.cache import FlowArtifactCache
from repro.trace import program
from repro.trace.ops import OpKind, Unit
from tests.test_sched_property import random_problems


def _reference_list_schedule(
    problem: JobShopProblem, priority: Optional[Sequence[int]] = None
) -> List[int]:
    """The list scheduler's rule, spelled out with no shortcuts.

    Each cycle every data-ready task is considered in ``(-priority,
    index)`` order (default priority: critical-path height); one
    issues if its unit is free, read ports remain for its
    non-forwarded operands and a write port is free at its completion
    cycle.  Test-only: the oracle the library's scheduler must match
    exactly.  Returns the start list.
    """
    mach = problem.machine
    lat = mach.latency
    succs = problem.successors()
    if priority is None:
        prio = [0] * problem.size
        for t in reversed(problem.tasks):
            h = 0
            for s in succs[t.index]:
                h = max(h, prio[s])
            prio[t.index] = h + lat(t.unit)
    else:
        prio = list(priority)

    n = problem.size
    start = [-1] * n
    unscheduled = n
    indegree = [len(t.deps) for t in problem.tasks]
    data_ready = [0] * n
    ready: List[int] = [t.index for t in problem.tasks if indegree[t.index] == 0]

    reads_used: Dict[int, int] = {}
    writes_used: Dict[int, int] = {}
    cycle = 0
    max_stall = 4 * (n + 8) * (mach.mult_latency + mach.addsub_latency)
    while unscheduled:
        if cycle > max_stall:
            raise RuntimeError("list scheduler failed to make progress")
        free = {Unit.MULTIPLIER: True, Unit.ADDSUB: True}
        for idx in sorted(
            (i for i in ready if data_ready[i] <= cycle),
            key=lambda i: (-prio[i], i),
        ):
            t = problem.tasks[idx]
            if not free[t.unit]:
                continue
            n_reads = t.external_reads
            for r in t.reads:
                avail = start[r] + lat(problem.tasks[r].unit)
                forwarded = mach.forwarding and cycle == avail
                if not forwarded:
                    n_reads += 1
            if reads_used.get(cycle, 0) + n_reads > mach.read_ports:
                continue
            wb = cycle + lat(t.unit)
            if writes_used.get(wb, 0) + 1 > mach.write_ports:
                continue
            start[idx] = cycle
            free[t.unit] = False
            reads_used[cycle] = reads_used.get(cycle, 0) + n_reads
            writes_used[wb] = writes_used.get(wb, 0) + 1
            ready.remove(idx)
            unscheduled -= 1
            for s in succs[idx]:
                indegree[s] -= 1
                avail = wb if mach.forwarding else wb + 1
                data_ready[s] = max(data_ready[s], avail)
                if indegree[s] == 0:
                    ready.append(s)
        cycle += 1
    return start


class TestListScheduleOracle:
    @given(random_problems(muxes=True))
    @settings(max_examples=150, deadline=None)
    def test_same_starts_as_reference(self, prob):
        assert list_schedule(prob).start == _reference_list_schedule(prob)

    @given(random_problems(muxes=True), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_same_starts_under_a_given_priority(self, prob, seed):
        """A caller's priority, ties and all, goes through the same rule."""
        rng = random.Random(seed)
        prio = [rng.randint(0, 5) for _ in range(prob.size)]
        assert list_schedule(prob, priority=prio).start == _reference_list_schedule(
            prob, prio
        )

    def test_kernel_and_full_program(self):
        for prog in (
            program.trace_loop_iteration(),
            program.trace_scalar_mult(k=0x2468ACE << 180, self_check=False),
        ):
            prob = problem_from_trace(prog.tracer.trace)
            assert list_schedule(prob).start == _reference_list_schedule(prob)


class TestResolutionBelongsToItsTrace:
    def test_assemble_resolves_the_trace_it_is_given(self):
        """A same-shape trace that chooses other mux inputs assembles
        from its own choices, not from the problem's trace's."""
        prog_a = program.trace_loop_iteration(random.Random(1), negate=True)
        prog_b = program.trace_loop_iteration(random.Random(2), negate=False)
        trace_a, trace_b = prog_a.tracer.trace, prog_b.tracer.trace
        muxes_a, muxes_b = resolve_muxes(trace_a), resolve_muxes(trace_b)
        assert {u: set(a) for u, a in muxes_a.alternatives.items()} == {
            u: set(a) for u, a in muxes_b.alternatives.items()
        }
        assert muxes_a.chosen != muxes_b.chosen

        prob = problem_from_trace(trace_a, muxes=muxes_a)
        sched = list_schedule(prob)
        alloc = allocate_registers(prob, sched, trace_a, prog_a.tracer.outputs)
        template = build_template(prob, sched, trace_a, prog_a.tracer.outputs, alloc)
        outputs = prog_b.tracer.outputs
        other = assemble(prob, sched, trace_b, outputs, alloc=alloc)
        assert other == template.rebind(trace_b)
        assert other == assemble(prob, sched, trace_b, outputs, alloc=alloc, muxes=muxes_b)
        assert other.words != assemble(prob, sched, trace_a, outputs, alloc=alloc).words


# -- the FSM word encoder ------------------------------------------------------


def _reference_encode_word(word: ControlWord, reg_bits: int) -> int:
    """The ROM word layout, one field at a time (test-only oracle)."""
    val = 0
    pos = 0

    def put(bits: int, width: int) -> None:
        nonlocal val, pos
        if bits >= (1 << width):
            raise ValueError("field overflow in control word encoding")
        val |= bits << pos
        pos += width

    put(1 if word.mult else 0, 1)
    put(1 if word.addsub else 0, 1)
    put(ADDSUB_OPCODES.get(word.addsub.kind, 0) if word.addsub else 0, 3)
    slots = []
    for issue in (word.mult, word.addsub):
        ops = list(issue.operands) if issue else []
        while len(ops) < 2:
            ops.append(None)
        slots.extend(ops[:2])
    for op in slots:
        if op is None:
            put(0, 2)
            put(0, reg_bits)
        else:
            put(SOURCE_CODES[op.source], 2)
            put(op.register if op.register >= 0 else 0, reg_bits)
    wbs = list(word.writebacks)[:2]
    while len(wbs) < 2:
        wbs.append(None)
    for wb in wbs:
        if wb is None:
            put(0, 1)
            put(0, 1)
            put(0, reg_bits)
        else:
            put(1, 1)
            put(1 if wb.unit is Unit.MULTIPLIER else 0, 1)
            put(wb.register, reg_bits)
    return val


_operands = st.builds(
    Operand,
    st.sampled_from(list(OperandSource)),
    st.integers(min_value=-1, max_value=20),
)


def _issues(kinds):
    return st.none() | st.builds(
        UnitIssue,
        st.sampled_from(kinds),
        st.lists(_operands, min_size=1, max_size=2).map(tuple),
        st.just(-1),
    )


_words = st.builds(
    ControlWord,
    st.just(0),
    _issues([OpKind.MUL, OpKind.SQR]),
    _issues(list(ADDSUB_OPCODES)),
    st.lists(
        st.builds(
            Writeback,
            st.integers(min_value=0, max_value=20),
            st.sampled_from([Unit.MULTIPLIER, Unit.ADDSUB]),
            st.just(-1),
        ),
        max_size=3,
    ).map(tuple),
)


def _encoded(encode, word, reg_bits):
    try:
        return encode(word, reg_bits)
    except ValueError as exc:
        return str(exc)


class TestEncodeWord:
    @given(_words, st.integers(min_value=1, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_same_word_or_same_overflow_as_reference(self, word, reg_bits):
        assert _encoded(_encode_word, word, reg_bits) == _encoded(
            _reference_encode_word, word, reg_bits
        )

    def test_register_overflow_raises(self):
        word = ControlWord(0, writebacks=(Writeback(8, Unit.ADDSUB, -1),))
        with pytest.raises(ValueError, match="field overflow"):
            _encode_word(word, 3)
        assert _encode_word(word, 4) == _reference_encode_word(word, 4)


# -- pinned artifact digests -----------------------------------------------


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def _fields(obj) -> tuple:
    return tuple(sorted(vars(obj).items()))


def _artifact_digests(flow, entry) -> Dict[str, str]:
    """One digest per miss-path artifact of a cache-filling flow."""
    problem, schedule, alloc = entry.problem, entry.schedule, entry.alloc
    tracer = (flow.optimized_program or flow.trace_program).tracer
    microprogram = flow.microprogram
    assembled = assemble(
        problem, schedule, tracer.trace, tracer.outputs,
        output_names=None, alloc=alloc,
    )
    tape = entry.compiled
    return {
        "problem": _digest(problem.tasks, problem.uid_to_index, problem.machine),
        "schedule": schedule.stable_hash()[:16],
        "alloc": _digest(
            sorted(alloc.reg_of.items()), sorted(alloc.preload.items()),
            alloc.register_count, sorted(alloc.live_ranges.items()),
        ),
        "words": _digest(microprogram.words, microprogram.outputs, microprogram.uid_reg),
        "assembled": _digest(assembled.words, sorted(assembled.preload.items())),
        "rom": _digest(
            flow.fsm.rom, flow.fsm.word_bits, flow.fsm.addr_bits,
            flow.fsm.reg_addr_bits, flow.fsm.states,
        ),
        "template": _digest(_fields(entry.template)),
        "tape": _digest(
            tape.preload,
            tuple(fn.__qualname__ for fn in tape.fns),
            tape.a, tape.b, tape.uids, tape.muxes, tape.outputs,
            tape.register_count, tape.base, tape.mux_cycle_reads,
        ),
    }


def _filled(prog, **flow_args):
    cache = FlowArtifactCache()
    flow = run_flow(prog, cache=cache, **flow_args)
    return _artifact_digests(flow, cache.get(flow.cache_key))


def _cold_shape(shape: str) -> Dict[str, str]:
    point = random_subgroup_point(random.Random(0xC01D))
    if shape in ("sm_list", "sm_cp_full"):
        prog = program.trace_scalar_mult(
            k=0x0F1E2D3C4B5A69788796A5B4C3D2E1F00123456789ABCDEF, point=point,
            self_check=False,
        )
        if shape == "sm_list":
            return _filled(prog, scheduler="list")
        return _filled(prog, scheduler="cp", optimize="full")
    if shape == "double_base":
        prog = program.trace_double_scalar_mult(
            u1=0x1234 << 200, u2=0xBEEF << 190, p1=AffinePoint.generator(), p2=point,
            self_check=False,
        )
        return _filled(prog)
    if shape == "msm_window":
        return _filled(program.trace_msm_window(8, 4, rng=random.Random(7)))
    return _filled(program.trace_loop_iteration(rng=random.Random(11)), scheduler="cp")


#: Recorded at the commit before the miss path's rework.
PINNED: Dict[str, Dict[str, str]] = {
    "sm_list": {
        "problem": "786795b885a25757",
        "schedule": "4516fa0fbda0237f",
        "alloc": "f4b7c2048dff3299",
        "words": "ade918f61694a1ed",
        "assembled": "5f96c62b867d6c62",
        "rom": "ec379ff9eebbe139",
        "template": "3d49553e59f98af2",
        "tape": "2f4b8a9242548f3a",
    },
    "sm_cp_full": {
        "problem": "df3b19e191cefe75",
        "schedule": "7fc1c6b5b120ead8",
        "alloc": "0f0a3560c72c83e4",
        "words": "a6797f80857fc7e3",
        "assembled": "7320d03ef7dc82af",
        "rom": "5c6064389aa4f9a1",
        "template": "0a94e6201063d1d5",
        "tape": "332c4ded3223f8ea",
    },
    "double_base": {
        "problem": "595e5cc9c1d0dc7d",
        "schedule": "08dc604ee5b878f7",
        "alloc": "bf01e494c5499e86",
        "words": "dbd0f65b5e6dfa1b",
        "assembled": "6e600fbe8a3d5df6",
        "rom": "9ce6e42a0b5f0f5a",
        "template": "2aaa400c06868d6a",
        "tape": "933d32eec1f834c3",
    },
    "msm_window": {
        "problem": "895e7fd6c504cf36",
        "schedule": "ba31afdb2ee70f37",
        "alloc": "bea4ac12528083fd",
        "words": "67e320e39cdb84e5",
        "assembled": "829bfc89201b30d2",
        "rom": "599bbc0c7496e726",
        "template": "f69fc1c51b3fbaae",
        "tape": "31a4e4cd442915e7",
    },
    "table1_cp": {
        "problem": "9fe1b47c77bebc07",
        "schedule": "468b084fa240b99f",
        "alloc": "26289e9f6613055c",
        "words": "5d52f5ea0df73b14",
        "assembled": "4b9b7aa632263241",
        "rom": "a274cd5f0c6e43f1",
        "template": "e07488c0b8f12e82",
        "tape": "e17ac59f04d1a931",
    },
    "engine_sm": {
        "problem": "f24e01154507998c",
        "schedule": "4516fa0fbda0237f",
        "alloc": "340f52811797873a",
        "words": "987e9b3106f3aac8",
        "assembled": "1b4970d0835c87b0",
        "rom": "a9df5a3b3de80ef3",
        "template": "312f7d0507a76cc9",
        "tape": "0c13615ed016645c",
    },
    "engine_double": {
        "problem": "8a321aebfc98c2dc",
        "schedule": "08dc604ee5b878f7",
        "alloc": "13ae7f615ff4f7b0",
        "words": "7f35cbff407255c5",
        "assembled": "fc80ad77d26cbbbb",
        "rom": "94727ac7c5d02275",
        "template": "1527d796b1b7a546",
        "tape": "4d14ef2a041a3a02",
    },
}


@pytest.mark.parametrize(
    "shape", ["sm_list", "sm_cp_full", "double_base", "msm_window", "table1_cp"]
)
def test_cold_compile_shape_artifacts_pinned(shape):
    assert _cold_shape(shape) == PINNED[shape]


def test_engine_fills_pinned():
    engine = BatchEngine()
    try:
        point = random_subgroup_point(random.Random(0xF111))
        got = {}
        for name, flow in (
            ("engine_sm", engine.scalarmult_flow(0xABCDEF << 120, point)),
            ("engine_double", engine.double_scalarmult_flow(
                0x5555 << 180, 0x3333 << 170, AffinePoint.generator(), point,
            )),
        ):
            assert not flow.cache_hit
            got[name] = _artifact_digests(flow, engine.cache.get(flow.cache_key))
    finally:
        engine.close()
    assert got == {name: PINNED[name] for name in got}
