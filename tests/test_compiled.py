"""The compiled tape a cache hit runs equals the interpreted datapath.

For the serving shapes (single-base ``sm``/``dh``, double-base
``verify``) the property draws subgroup points and scalars — k >= N and
k = 1 (mod N) included — records each request twice (full trace and
value-only recording) and requires the tape, run on the recording, to
reproduce the interpreted simulation of the full trace: the outputs,
the multiplier statistics and every ``UnitProfile`` field, the
routing-dependent register reads and forwarding counts included.
Random straight-line programs on random machines check the same
through ``run_flow``'s fill and hit paths.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curve.params import SUBGROUP_ORDER_N as N
from repro.curve.point import AffinePoint, random_subgroup_point
from repro.flow import run_flow
from repro.obs import MetricsRegistry
from repro.rtl import DatapathSimulator, SimulationError
from repro.rtl.compiled import compile_program
from repro.sched import MachineSpec
from repro.serve import BatchEngine
from repro.serve.cache import FlowArtifactCache
from repro.trace.program import trace_double_scalar_mult, trace_scalar_mult
from repro.trace.tracer import ValueRecorder
from tests.test_flow_property import _random_program, program_params

scalars = st.one_of(
    st.integers(min_value=1, max_value=N - 1),
    st.integers(min_value=N, max_value=2**256 - 1),
    st.sampled_from([1, N + 1, 2 * N + 1]),
)
points = st.integers(min_value=0, max_value=2**32).map(
    lambda seed: random_subgroup_point(random.Random(seed))
)


@pytest.fixture(scope="module")
def engine():
    eng = BatchEngine(metrics=MetricsRegistry())
    eng.warm()
    g = AffinePoint.generator()
    eng.double_scalarmult_flow(3, 5, g, random_subgroup_point(random.Random(1)))
    yield eng
    eng.close()


def _entry(engine, shape):
    return engine.cache.get(engine._shape_keys[shape])


def _tape_vs_interpreted(entry, build):
    """Run one request through the tape and the interpreted simulator."""
    full = build(None).tracer
    recording = build(ValueRecorder()).tracer
    assert recording.values == [op.value for op in full.trace]
    assert recording.chosen == ValueRecorder.of(full).chosen
    interpreted = DatapathSimulator().run(entry.template.rebind(full.trace))
    tape = entry.compiled.run(recording)
    assert tape.outputs == interpreted.outputs
    assert tape.profile == interpreted.profile
    assert tape.mult_stats == interpreted.mult_stats
    assert tape.addsub_stats == interpreted.addsub_stats
    return tape


def _point(result) -> AffinePoint:
    return AffinePoint(result.outputs["result_x"], result.outputs["result_y"])


class TestTapeEquivalence:
    @given(k=scalars, p=points)
    @settings(max_examples=20)
    def test_single_base_shape(self, engine, k, p):
        def build(tracer):
            return trace_scalar_mult(k=k, point=p, self_check=False, tracer=tracer)

        tape = _tape_vs_interpreted(_entry(engine, "scalarmult"), build)
        assert tape.cycles == tape.profile.cycles == 2069
        assert _point(tape) == (k % N) * p

    @given(u1=scalars, u2=scalars, p=points)
    @settings(max_examples=10)
    def test_double_base_shape(self, engine, u1, u2, p):
        g = AffinePoint.generator()

        def build(tracer):
            return trace_double_scalar_mult(
                u1=u1, u2=u2, p1=g, p2=p, self_check=False, tracer=tracer
            )

        tape = _tape_vs_interpreted(_entry(engine, "double_scalarmult"), build)
        assert tape.cycles == tape.profile.cycles == 3087
        assert _point(tape) == (u1 % N) * g + (u2 % N) * p

    def test_routing_dependent_counters_are_per_request(self, engine):
        """Two requests of one shape can differ in register reads and
        forwarding uses; the tape counts each one's own."""
        entry = _entry(engine, "scalarmult")
        g = AffinePoint.generator()
        profiles = {}
        for k in (3, 0x1234567, 0xDEADBEEF, 0xFEEDFACE, 7 * 2**200 + 11):
            tape = _tape_vs_interpreted(
                entry,
                lambda tracer, k=k: trace_scalar_mult(
                    k=k, point=g, self_check=False, tracer=tracer
                ),
            )
            p = tape.profile
            profiles[(p.rf_reads, p.forward_mult_uses, p.forward_addsub_uses)] = k
        assert len(profiles) > 1


class TestFillAndHit:
    @given(program_params())
    @settings(max_examples=30)
    def test_random_programs(self, params):
        """Every machine model: the hit's tape equals the fill's run."""
        prog = _random_program(
            params["seed"], params["n_ops"], params["n_inputs"], params["use_select"]
        )
        machine = MachineSpec(
            mult_latency=params["mult_latency"], forwarding=params["forwarding"]
        )
        cache = FlowArtifactCache()
        miss = run_flow(prog, machine=machine, scheduler="list", cache=cache,
                        metrics=MetricsRegistry())
        hit = run_flow(prog, machine=machine, scheduler="list", cache=cache,
                       metrics=MetricsRegistry())
        assert hit.cache_hit and not miss.cache_hit
        assert hit.simulation.outputs == miss.simulation.outputs
        assert hit.simulation.profile == miss.simulation.profile
        assert hit.microprogram == miss.microprogram


class TestFillTimeProofs:
    @pytest.fixture
    def template(self, engine):
        return _entry(engine, "scalarmult").template

    def test_port_budget(self, template):
        with pytest.raises(SimulationError, match="reads"):
            compile_program(template, read_ports=3)
        with pytest.raises(SimulationError, match="writes"):
            compile_program(template, write_ports=1)

    def test_wrong_pipeline_depth(self, template):
        # Results leave the multiplier a cycle early: writebacks and
        # forwards no longer line up with the schedule.
        with pytest.raises(SimulationError):
            compile_program(template, mult_depth=2)

    def test_uninitialized_read(self, template):
        bad = dataclasses.replace(template, preload_slots=template.preload_slots[1:])
        with pytest.raises(SimulationError, match="uninitialized"):
            compile_program(bad)
