"""Tests for register allocation, microcode assembly, and FSM generation."""

import pytest

from repro.isa import OperandSource, allocate_registers, assemble, generate_fsm
from repro.sched import cp_schedule, list_schedule, problem_from_trace
from repro.trace import OpKind, Tracer, trace_loop_iteration


def _tiny_traced():
    tr = Tracer()
    a = tr.input((3, 0), "a")
    b = tr.input((5, 0), "b")
    m = tr.mul(a, b)          # 15
    s = tr.add(m, a)          # 18
    t = tr.sub(s, b)          # 13
    tr.mark_output(t, "out")
    return tr


class TestRegalloc:
    def test_tiny_allocation(self):
        tr = _tiny_traced()
        prob = problem_from_trace(tr.trace)
        sched = list_schedule(prob)
        alloc = allocate_registers(prob, sched, tr.trace, tr.outputs)
        # All five values need registers but lifetimes overlap heavily.
        assert alloc.register_count <= 5
        assert len(alloc.preload) == 2  # the two inputs
        assert set(alloc.preload.values()) == {(3, 0), (5, 0)}

    def test_reuse_happens(self):
        """A long chain should reuse registers, not grow linearly."""
        tr = Tracer()
        v = tr.input((2, 0), "x")
        for _ in range(30):
            v = tr.sqr(v)
        tr.mark_output(v, "out")
        prob = problem_from_trace(tr.trace)
        sched = list_schedule(prob)
        alloc = allocate_registers(prob, sched, tr.trace, tr.outputs)
        assert alloc.register_count <= 4

    def test_outputs_stay_live(self):
        tr = _tiny_traced()
        prob = problem_from_trace(tr.trace)
        sched = list_schedule(prob)
        alloc = allocate_registers(prob, sched, tr.trace, tr.outputs)
        out_uid = tr.outputs[0]
        start, end = alloc.live_ranges[out_uid]
        assert end > sched.makespan  # lives to the horizon


class TestAssemble:
    def test_tiny_program(self):
        tr = _tiny_traced()
        prob = problem_from_trace(tr.trace)
        sched = list_schedule(prob)
        prog = assemble(prob, sched, tr.trace, tr.outputs)
        assert prog.cycles == sched.makespan + 1
        assert "out" in prog.outputs
        # One issue per op across all words.
        mult_issues = sum(1 for w in prog.words if w.mult)
        addsub_issues = sum(1 for w in prog.words if w.addsub)
        assert mult_issues == 1
        assert addsub_issues == 2
        # Every op writes back exactly once.
        wbs = [wb for w in prog.words for wb in w.writebacks]
        assert len(wbs) == 3

    def test_forwarding_operands_encoded(self):
        prog_src = trace_loop_iteration()
        prob = problem_from_trace(prog_src.tracer.trace)
        sched = cp_schedule(prob).schedule
        prog = assemble(
            prob, sched, prog_src.tracer.trace, prog_src.tracer.outputs
        )
        sources = [
            op.source
            for w in prog.words
            for issue in (w.mult, w.addsub)
            if issue
            for op in issue.operands
        ]
        # A 24-cycle optimal schedule of a 28-op kernel must forward.
        assert OperandSource.FORWARD_MULT in sources or (
            OperandSource.FORWARD_ADDSUB in sources
        )

    def test_rom_geometry(self):
        prog_src = trace_loop_iteration()
        prob = problem_from_trace(prog_src.tracer.trace)
        sched = cp_schedule(prob).schedule
        prog = assemble(
            prob, sched, prog_src.tracer.trace, prog_src.tracer.outputs
        )
        fsm = generate_fsm(prog)
        assert fsm.word_bits > 16
        assert max(fsm.rom).bit_length() <= fsm.word_bits
        assert fsm.rom_kilobits == pytest.approx(
            prog.cycles * fsm.word_bits / 1000.0
        )


class TestFSM:
    def test_generation(self):
        tr = _tiny_traced()
        prob = problem_from_trace(tr.trace)
        sched = list_schedule(prob)
        prog = assemble(prob, sched, tr.trace, tr.outputs)
        fsm = generate_fsm(prog)
        assert len(fsm.rom) == prog.cycles
        assert fsm.states == prog.cycles + 2
        assert all(0 <= w < (1 << fsm.word_bits) for w in fsm.rom)
        assert "FSM controller" in fsm.describe()

    def test_rom_words_distinguish_cycles(self):
        """Different control words should encode differently."""
        prog_src = trace_loop_iteration()
        prob = problem_from_trace(prog_src.tracer.trace)
        sched = cp_schedule(prob).schedule
        prog = assemble(
            prob, sched, prog_src.tracer.trace, prog_src.tracer.outputs
        )
        fsm = generate_fsm(prog)
        busy_words = [
            fsm.rom[w.cycle] for w in prog.words if w.mult or w.addsub
        ]
        assert len(set(busy_words)) > len(busy_words) // 2


class TestROMDecode:
    """The packed ROM image must decode back to the control words."""

    def _roundtrip(self, prog, fsm):
        from repro.isa import OperandSource, decode_word
        from repro.trace import OpKind

        for word, raw in zip(prog.words, fsm.rom):
            mult_kind = word.mult.kind if word.mult else OpKind.MUL
            dec = decode_word(
                raw, fsm.reg_addr_bits, word.cycle, mult_kind=mult_kind
            )
            assert (dec.mult is None) == (word.mult is None)
            assert (dec.addsub is None) == (word.addsub is None)
            for orig_issue, dec_issue in (
                (word.mult, dec.mult),
                (word.addsub, dec.addsub),
            ):
                if orig_issue is None:
                    continue
                if orig_issue.kind in ADDSUB_KINDS:
                    assert dec_issue.kind == orig_issue.kind
                for orig_op, dec_op in zip(
                    orig_issue.operands, dec_issue.operands
                ):
                    assert dec_op.source == orig_op.source
                    if orig_op.source is OperandSource.REGISTER:
                        assert dec_op.register == orig_op.register
            got_wbs = {(wb.register, wb.unit) for wb in dec.writebacks}
            want_wbs = {(wb.register, wb.unit) for wb in word.writebacks}
            assert got_wbs == want_wbs

    def test_roundtrip_kernel(self):
        prog_src = trace_loop_iteration()
        prob = problem_from_trace(prog_src.tracer.trace)
        sched = cp_schedule(prob).schedule
        prog = assemble(
            prob, sched, prog_src.tracer.trace, prog_src.tracer.outputs
        )
        fsm = generate_fsm(prog)
        self._roundtrip(prog, fsm)

    def test_roundtrip_tiny(self):
        tr = _tiny_traced()
        prob = problem_from_trace(tr.trace)
        sched = list_schedule(prob)
        prog = assemble(prob, sched, tr.trace, tr.outputs)
        fsm = generate_fsm(prog)
        self._roundtrip(prog, fsm)


from repro.trace import OpKind as _OpKind

ADDSUB_KINDS = {_OpKind.ADD, _OpKind.SUB, _OpKind.NEG, _OpKind.CONJ}


class TestExport:
    def _program(self):
        prog_src = trace_loop_iteration()
        prob = problem_from_trace(prog_src.tracer.trace)
        sched = cp_schedule(prob).schedule
        return assemble(
            prob, sched, prog_src.tracer.trace, prog_src.tracer.outputs
        )

    def test_rom_hex_format(self):
        from repro.isa import export_rom_hex

        prog = self._program()
        fsm = generate_fsm(prog)
        text = export_rom_hex(fsm)
        lines = text.strip().splitlines()
        assert lines[0].startswith("//")
        assert len(lines) - 1 == len(fsm.rom)
        assert int(lines[1], 16) == fsm.rom[0]

    def test_json_roundtrip(self):
        from repro.isa import export_program_json, import_program_json

        prog = self._program()
        bundle = export_program_json(prog)
        payload = import_program_json(bundle)
        assert payload["register_count"] == prog.register_count
        assert payload["cycles"] == prog.cycles
        assert payload["preload"] == prog.preload
        assert payload["outputs"] == prog.outputs

    def test_tamper_detected(self):
        import json

        from repro.isa import export_program_json
        from repro.isa.export import ImportError_, import_program_json

        prog = self._program()
        payload = json.loads(export_program_json(prog))
        payload["rom"][0] = "deadbeef"
        with pytest.raises(ImportError_):
            import_program_json(json.dumps(payload))

    def test_garbage_rejected(self):
        from repro.isa.export import ImportError_, import_program_json

        with pytest.raises(ImportError_):
            import_program_json("not json {{{")
        with pytest.raises(ImportError_):
            import_program_json('{"format": "something-else"}')


class TestRegisterPressure:
    def test_peak_pressure_close_to_allocation(self):
        from repro.isa.regalloc import register_pressure
        from repro.isa import allocate_registers

        prog = trace_loop_iteration()
        prob = problem_from_trace(prog.tracer.trace)
        sched = cp_schedule(prob).schedule
        pressure = register_pressure(
            prob, sched, prog.tracer.trace, prog.tracer.outputs
        )
        alloc = allocate_registers(
            prob, sched, prog.tracer.trace, prog.tracer.outputs
        )
        peak = max(pressure)
        # Linear scan cannot beat the peak and should be within a couple
        # of registers of it.
        assert peak <= alloc.register_count <= peak + 2

    def test_pressure_curve_shape(self):
        from repro.isa.regalloc import register_pressure

        prog = trace_loop_iteration()
        prob = problem_from_trace(prog.tracer.trace)
        sched = cp_schedule(prob).schedule
        pressure = register_pressure(
            prob, sched, prog.tracer.trace, prog.tracer.outputs
        )
        # Preloaded inputs make pressure positive from cycle 0.
        assert pressure[0] > 0
        assert all(p >= 0 for p in pressure)
