"""The end-to-end automated design flow of the paper (Section III-C).

One call takes the Python-traced algorithm all the way to a verified
cycle-accurate execution:

    trace (Step 1-2)  ->  job-shop scheduling (Step 3)
                      ->  control-signal generation (Step 4)
                      ->  cycle-accurate datapath simulation (verify)

:func:`run_flow` returns every intermediate artifact so benchmarks and
examples can report sizes, makespans, ROM geometry, and simulation
statistics.

For serving many requests of the same workload shape, pass a
:class:`repro.serve.cache.FlowArtifactCache`.  The first request of a
shape (the fill) runs the whole flow above and, in addition, compiles
the shape's program into a flat instruction tape
(:class:`repro.rtl.compiled.CompiledProgram`); the tape runs on the
filling request and must reproduce the interpreted, golden-checked
simulation's outputs and unit profile, or the entry is not stored.
For a scalar-multiplication shape the fill also builds the shape's
:class:`repro.trace.replay.Replay` from the full trace and checks it
(its select map against the traced main loop, and its recording of the
filling request against that request's trace); a replay that fails
stores nothing, like a tape that fails.  Uncached flows build no
replay.  Every cache hit then runs only the tape: no solve, no rebind,
no interpreted simulation.  The hit still checks every op's result
against the request's traced value and every output against its traced
value.  Its input may be a value-only recording
(:class:`repro.trace.tracer.ValueRecorder`) instead of a full trace:
the batch engine sends the cached replay's recording.  A hit that fails
any check falls back to the full flow (re-tracing a recording first),
so caching never changes results, only cost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Optional, TYPE_CHECKING

from .isa.fsm import FSMController, generate_fsm
from .isa.microcode import MicroProgram, assemble, build_template
from .isa.regalloc import allocate_registers
from .obs import MetricsRegistry, get_registry
from .opt import OPT_LEVELS, OptStats, memoized_schedule, optimize_trace
from .rtl.compiled import compile_program
from .rtl.datapath import DatapathSimulator, SimulationError, SimulationResult
from .sched.cp_scheduler import cp_schedule
from .sched.jobshop import (
    JobShopProblem,
    MachineSpec,
    problem_from_trace,
    resolve_muxes,
)
from .sched.list_scheduler import list_schedule
from .sched.schedule import Schedule
from .trace.program import TraceProgram
from .trace.replay import Replay, ReplayError, build_replay
from .trace.tracer import ValueRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve imports flow)
    from .serve.cache import FlowArtifactCache, FlowArtifacts

#: Histogram of per-stage wall time (seconds), labeled ``stage=``
#: problem / optimize / solve / regalloc / assemble / rebind / simulate
#: (the engine adds ``trace``).
FLOW_STAGE_SECONDS = "repro_flow_stage_seconds"
#: Counter of flow passes, labeled ``path=`` miss / hit / fallback.
FLOW_REQUESTS = "repro_flow_requests_total"
#: Counter of flow-artifact cache events, labeled ``event=`` hit / miss
#: / fallback / eviction (a fallback also counts as a miss).
CACHE_EVENTS = "repro_cache_events_total"
#: Counter of optimizer invocations, labeled ``level=``.
OPT_RUNS = "repro_opt_runs_total"
#: Counter of micro-ops removed by the rewrite passes, labeled
#: ``pass=`` cse / fold / dve.
OPT_OPS_REMOVED = "repro_opt_ops_removed_total"
#: Counter of memoized-scheduler segments, labeled ``outcome=``
#: solved / reused.
OPT_SEGMENTS = "repro_opt_segments_total"

#: "auto" resolves to the CP scheduler for problems up to this many
#: arithmetic ops, the list scheduler beyond.
AUTO_CP_MAX_OPS = 64


def resolve_scheduler(scheduler: str, trace_program: TraceProgram) -> str:
    """Resolve ``"auto"`` to the concrete scheduler for this trace.

    Shared with the cache keying: the shape key must be computed from
    the *resolved* name, or an ``"auto"`` request and an explicit
    ``"cp"``/``"list"`` request for the same trace fragment into two
    cache entries holding byte-identical artifacts.  Resolution uses
    the original trace's arithmetic-op count, so it never depends on
    whether the optimizer runs.
    """
    if scheduler != "auto":
        return scheduler
    size = trace_program.tracer.arithmetic_size()
    return "cp" if size <= AUTO_CP_MAX_OPS else "list"


def _record_opt(obs: MetricsRegistry, stats: OptStats) -> None:
    """Export one optimizer run's pass statistics."""
    obs.counter(OPT_RUNS, level=stats.level).inc()
    obs.counter(OPT_OPS_REMOVED, **{"pass": "cse"}).inc(stats.cse_merged)
    obs.counter(OPT_OPS_REMOVED, **{"pass": "fold"}).inc(stats.const_folded)
    obs.counter(OPT_OPS_REMOVED, **{"pass": "dve"}).inc(stats.dve_removed)
    if stats.segments_total:
        obs.counter(OPT_SEGMENTS, outcome="solved").inc(stats.segments_solved)
        obs.counter(OPT_SEGMENTS, outcome="reused").inc(stats.segments_reused)


@dataclass
class FlowResult:
    """All artifacts of one pass through the design flow.

    ``cache_hit`` marks results produced through a flow-artifact cache's
    fast path (the shape's compiled tape; the FSM then reports the
    shape-invariant geometry of the cached controller).  ``fallback``
    marks requests where the fast path failed a check and the full flow
    was recomputed.  A hit assembles no microprogram: ``microprogram``
    rebinds the cached template on first access.  ``replay`` is the
    cached shape's replay, when it has one (set on hits and on fills).
    """

    trace_program: TraceProgram
    problem: JobShopProblem
    schedule: Schedule
    fsm: FSMController
    simulation: SimulationResult
    cache_hit: bool = False
    fallback: bool = False
    cache_key: Optional[str] = None
    #: Optimization level the flow ran at ("none" = the legacy path).
    optimize: str = "none"
    #: Pass statistics when the optimizer ran (None at level "none").
    opt_stats: Optional[OptStats] = None
    #: The rewritten program actually scheduled/simulated at levels
    #: "cse"/"full"; ``trace_program`` always stays the caller's
    #: original recording.
    optimized_program: Optional[TraceProgram] = None
    replay: Optional[Replay] = None
    _microprogram: Optional[MicroProgram] = field(default=None, repr=False)
    _assemble: Optional[Callable[[], MicroProgram]] = field(
        default=None, repr=False, compare=False
    )

    @property
    def microprogram(self) -> MicroProgram:
        """The assembled program ROM contents and preload."""
        if self._microprogram is None and self._assemble is not None:
            self._microprogram = self._assemble()
        return self._microprogram

    @property
    def cycles(self) -> int:
        """Total executed cycles (the number the latency model uses)."""
        return self.simulation.cycles

    def report(self) -> str:
        from .trace.ops import Unit

        lines = [
            f"workload        : {self.trace_program.description}",
            f"micro-ops       : {self.problem.size} "
            f"({self.problem.unit_load(Unit.MULTIPLIER)} mult / "
            f"{self.problem.unit_load(Unit.ADDSUB)} add-sub)",
            f"schedule        : {self.schedule.summary()}",
            f"registers       : {self.microprogram.register_count}",
            f"program ROM     : {self.microprogram.cycles} words x "
            f"{self.fsm.word_bits} bits = {self.fsm.rom_kilobits:.1f} kbit",
            f"simulated cycles: {self.simulation.cycles}",
        ]
        return "\n".join(lines)


def _output_names(trace_program: TraceProgram) -> Dict[int, str]:
    tracer = trace_program.tracer
    return {uid: tracer.trace[uid].name for uid in tracer.outputs}


def _verify_outputs(
    trace_program: TraceProgram, microprogram: MicroProgram, sim: SimulationResult
) -> None:
    """Check the simulated outputs against the traced reference values.

    The golden check already proves every writeback; this closes the
    loop on the output *mapping* (which register each named result is
    read from).  A cache hit's tape makes the same check itself.
    """
    tracer = trace_program.tracer
    names = _output_names(trace_program)
    for uid in tracer.outputs:
        name = names.get(uid) or f"v{uid}"
        if name not in sim.outputs:
            # A renamed or dropped output must not silently escape the
            # end-to-end check.
            raise SimulationError(
                f"output {name} missing from the simulation outputs"
            )
        if sim.outputs[name] != tracer.trace[uid].value:
            raise SimulationError(
                f"output {name} diverged from the traced reference"
            )


def _record_simulation(obs: MetricsRegistry, sim: SimulationResult) -> None:
    """Push one run's datapath profile into the metrics registry."""
    profile = sim.profile
    if profile is None:
        return
    obs.counter("repro_datapath_runs_total").inc()
    obs.counter("repro_datapath_cycles_total").inc(profile.cycles)
    obs.counter("repro_datapath_unit_issues_total", unit="mult").inc(
        profile.mult_issues
    )
    obs.counter("repro_datapath_unit_issues_total", unit="addsub").inc(
        profile.addsub_issues
    )
    obs.counter("repro_datapath_unit_busy_cycles_total", unit="mult").inc(
        profile.mult_busy_cycles
    )
    obs.counter("repro_datapath_unit_busy_cycles_total", unit="addsub").inc(
        profile.addsub_busy_cycles
    )
    obs.counter("repro_datapath_forward_uses_total", unit="mult").inc(
        profile.forward_mult_uses
    )
    obs.counter("repro_datapath_forward_uses_total", unit="addsub").inc(
        profile.forward_addsub_uses
    )
    obs.counter("repro_datapath_regfile_reads_total").inc(profile.rf_reads)
    obs.counter("repro_datapath_regfile_writes_total").inc(profile.rf_writes)
    obs.gauge("repro_datapath_regfile_read_ports_max", mode="max").set(
        profile.max_reads_per_cycle
    )
    obs.gauge("repro_datapath_regfile_write_ports_max", mode="max").set(
        profile.max_writes_per_cycle
    )


def run_flow(
    trace_program: TraceProgram,
    machine: Optional[MachineSpec] = None,
    scheduler: str = "auto",
    cp_node_budget: int = 200_000,
    cache: "Optional[FlowArtifactCache]" = None,
    simulator: Optional[DatapathSimulator] = None,
    cache_key: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    optimize: str = "none",
) -> FlowResult:
    """Run the complete flow on a recorded trace.

    Args:
        trace_program: output of :func:`repro.trace.trace_scalar_mult`
            or :func:`repro.trace.trace_loop_iteration`.  A value-only
            recording (a :class:`~repro.trace.tracer.ValueRecorder`,
            from a trace builder given ``replay``) runs on the compiled
            tape cached under ``cache_key``; when there is none to run,
            it is re-traced in full first.
        machine: datapath timing model (default: 3-cycle pipelined
            multiplier, 1-cycle adder, 4R/2W ports, forwarding on).
        scheduler: ``"list"``, ``"cp"`` or ``"auto"`` (CP for kernels up
            to 64 ops, list scheduling beyond).
        cp_node_budget: branch-and-bound node limit for the CP solver.
        cache: optional flow-artifact cache; same-shape requests run
            the shape's compiled tape (see module docstring).
        simulator: optional reusable simulator (reset between runs);
            one is constructed per call when omitted.
        cache_key: optional precomputed shape key (a caller that knows
            its requests share one shape — the batch engine — skips
            re-hashing the trace per request).  A wrong key is safe:
            the tape's checks reject the mismatched artifacts, the true
            key is recomputed, and the full flow runs.
        metrics: registry receiving per-stage wall-time spans, the
            hit/miss/fallback counters, and the datapath unit profile
            (default: the process-wide :func:`repro.obs.get_registry`).
        optimize: trace-optimizer level — ``"none"`` (the legacy flow,
            byte-identical artifacts), ``"cse"`` (CSE + const-fold +
            DVE rewrites), or ``"full"`` (rewrites plus memoized
            sub-DAG scheduling).  Folded into the cache key, so cached
            artifacts never cross optimization levels (see
            ``docs/optimizer.md``).

    Returns:
        A :class:`FlowResult`; raises if any stage fails validation.
    """
    if optimize not in OPT_LEVELS:
        raise ValueError(f"optimize level must be one of {OPT_LEVELS}")
    if scheduler not in ("auto", "cp", "list"):
        raise ValueError(f"unknown scheduler {scheduler!r}")
    machine = machine or MachineSpec()
    obs = metrics if metrics is not None else get_registry()
    recorded = isinstance(trace_program.tracer, ValueRecorder)
    if recorded and (cache is None or cache_key is None or optimize != "none"):
        # Only a cached shape's tape can replay a recording.
        trace_program, recorded = trace_program.retrace(), False

    opt_stats: Optional[OptStats] = None
    work_program = trace_program
    if optimize != "none":
        # The rewrite runs before the cache lookup: a hit still needs
        # the *optimized* trace for the tape's golden values, so the hit
        # path pays the (purely structural, deterministic) rewrite too.
        t0 = perf_counter()
        work_program, opt_stats = optimize_trace(trace_program, optimize)
        obs.histogram(FLOW_STAGE_SECONDS, stage="optimize").observe(
            perf_counter() - t0
        )

    key = None
    fallback = False
    if cache is not None:
        key = (
            cache_key
            if cache_key is not None
            else cache.key_for(trace_program, machine, scheduler, optimize)
        )
        entry = cache.get(key)
        if entry is not None:
            try:
                result = _run_from_artifacts(work_program, entry, key, obs)
                obs.counter(CACHE_EVENTS, event="hit").inc()
                result.trace_program = trace_program
                result.optimize = optimize
                result.opt_stats = opt_stats
                if optimize != "none":
                    result.optimized_program = work_program
                    if opt_stats is not None:
                        _record_opt(obs, opt_stats)
                return result
            except _TAPE_FAILURES:
                # Shape-key collision or stale artifacts: recompute the
                # full flow and replace the entry.  Correctness is never
                # at stake — the golden/output checks caught the issue.
                # The fast path did not complete, so this is a miss.
                obs.counter(CACHE_EVENTS, event="miss").inc()
                obs.counter(CACHE_EVENTS, event="fallback").inc()
                if recorded:
                    trace_program = work_program = trace_program.retrace()
                true_key = cache.key_for(
                    trace_program, machine, scheduler, optimize
                )
                if true_key == key:
                    # The entry under this key is genuinely bad.
                    cache.invalidate(key)
                # else: the caller-supplied key was stale (shape drift);
                # the cached entry is fine for its own shape — keep it
                # and file this request under its true key below.
                key = true_key
                fallback = True
        else:
            obs.counter(CACHE_EVENTS, event="miss").inc()
            if recorded:
                trace_program = work_program = trace_program.retrace()
            if cache_key is not None:
                # The caller-supplied key missed: recompute the true
                # digest so the artifacts are filed under their real
                # shape key (a stale memo must not leak into the
                # cache's key space).
                key = cache.key_for(trace_program, machine, scheduler, optimize)
    scheduler = resolve_scheduler(scheduler, trace_program)
    tracer = work_program.tracer

    # A fill builds the shape's replay first: its transient memory then
    # does not stack on the scheduling stages'.  One that fails its
    # checks makes the fill store nothing (below).
    replay = None
    replay_ok = True
    main_loop = trace_program.main_loop
    if cache is not None and optimize == "none" and main_loop is not None:
        try:
            replay = build_replay(trace_program.tracer, main_loop)
        except ReplayError:
            replay_ok = False

    t0 = perf_counter()
    # Every stage below reads this one resolution of the trace's muxes.
    muxes = resolve_muxes(tracer.trace)
    problem = problem_from_trace(tracer.trace, machine, muxes=muxes)
    obs.histogram(FLOW_STAGE_SECONDS, stage="problem").observe(perf_counter() - t0)

    t0 = perf_counter()
    if optimize == "full":
        # Memoized sub-DAG scheduling: solve each unique segment once
        # (with the resolved scheduler), stitch with overlap-aware
        # placement, validate the stitched whole.
        schedule, memo_stats = memoized_schedule(
            problem, sections=tracer.sections, solver=scheduler
        )
        if opt_stats is not None:
            opt_stats.segments_total = memo_stats.segments_total
            opt_stats.segments_solved = memo_stats.segments_solved
            opt_stats.segments_reused = memo_stats.segments_reused
    else:
        if scheduler == "cp":
            schedule = cp_schedule(problem, node_budget=cp_node_budget).schedule
        else:
            schedule = list_schedule(problem)
        schedule.validate()
    obs.histogram(FLOW_STAGE_SECONDS, stage="solve").observe(perf_counter() - t0)

    t0 = perf_counter()
    alloc = allocate_registers(
        problem, schedule, tracer.trace, tracer.outputs, muxes=muxes
    )
    obs.histogram(FLOW_STAGE_SECONDS, stage="regalloc").observe(perf_counter() - t0)
    t0 = perf_counter()
    template = compiled = None
    rebind_s = 0.0
    if cache is not None:
        # Build the reusable control skeleton once per shape and derive
        # this request's program from it — rebind(trace) on the template
        # is assemble()'s output byte for byte (pinned by the microcode
        # equivalence test), so the miss path pays one walk, not two.
        # The tape compiles from the same skeleton.
        template = build_template(
            problem,
            schedule,
            tracer.trace,
            tracer.outputs,
            alloc=alloc,
            output_names=_output_names(work_program),
            muxes=muxes,
        )
        try:
            compiled = compile_program(
                template, machine.mult_latency, machine.addsub_latency
            )
        except SimulationError:
            pass  # a shape whose static checks fail is not stored
        t1 = perf_counter()
        microprogram = template.rebind(tracer.trace)
        rebind_s = perf_counter() - t1
        obs.histogram(FLOW_STAGE_SECONDS, stage="rebind").observe(rebind_s)
    else:
        microprogram = assemble(
            problem,
            schedule,
            tracer.trace,
            tracer.outputs,
            output_names=_output_names(work_program),
            alloc=alloc,
            validate=False,  # validated above
            muxes=muxes,
        )
    fsm = generate_fsm(microprogram)
    obs.histogram(FLOW_STAGE_SECONDS, stage="assemble").observe(
        perf_counter() - t0 - rebind_s
    )
    t0 = perf_counter()
    sim_engine = simulator or DatapathSimulator(
        mult_depth=machine.mult_latency, addsub_depth=machine.addsub_latency
    )
    sim = sim_engine.run(microprogram)
    _verify_outputs(work_program, microprogram, sim)
    if compiled is not None and not (
        replay_ok and _tape_reproduces(compiled, work_program, sim)
    ):
        compiled = None
    obs.histogram(FLOW_STAGE_SECONDS, stage="simulate").observe(perf_counter() - t0)
    _record_simulation(obs, sim)
    if opt_stats is not None:
        _record_opt(obs, opt_stats)
    obs.counter(FLOW_REQUESTS, path="fallback" if fallback else "miss").inc()

    if cache is not None and key is not None:
        if compiled is None:
            # The tape could not reproduce the interpreted run, or the
            # replay failed its checks: store nothing, so no later
            # request can hit a wrong program.
            obs.counter(CACHE_EVENTS, event="fallback").inc()
        else:
            from .serve.cache import FlowArtifacts

            evicted = cache.put(
                FlowArtifacts(
                    key=key,
                    problem=problem,
                    schedule=schedule,
                    alloc=alloc,
                    fsm=fsm,
                    schedule_hash=schedule.stable_hash(),
                    template=template,
                    compiled=compiled,
                    replay=replay,
                )
            )
            if evicted:
                obs.counter(CACHE_EVENTS, event="eviction").inc(evicted)

    return FlowResult(
        trace_program=trace_program,
        problem=problem,
        schedule=schedule,
        fsm=fsm,
        simulation=sim,
        cache_hit=False,
        fallback=fallback,
        cache_key=key,
        optimize=optimize,
        opt_stats=opt_stats,
        optimized_program=work_program if optimize != "none" else None,
        replay=replay if compiled is not None else None,
        _microprogram=microprogram,
    )


#: What a cache hit's tape may raise: a length or output mismatch
#: (ValueError / SimulationError), a non-canonical preload or a golden
#: mismatch (SimulationError), a leaf outside the candidate set
#: (KeyError), or a corrupted tape reading a slot that does not exist
#: (IndexError).  The tape's multiplier asserts no widths: they are
#: proven once for canonical operands, and the preload check makes
#: every operand canonical.
_TAPE_FAILURES = (KeyError, IndexError, ValueError, RuntimeError)


def _tape_reproduces(compiled, program: TraceProgram, sim: SimulationResult) -> bool:
    """Does the tape, run on the filling request, equal the interpreted run?"""
    try:
        tape = compiled.run(ValueRecorder.of(program.tracer))
    except _TAPE_FAILURES:
        return False
    return tape.outputs == sim.outputs and tape.profile == sim.profile


def _run_from_artifacts(
    trace_program: TraceProgram,
    entry: "FlowArtifacts",
    key: Optional[str],
    obs: MetricsRegistry,
) -> FlowResult:
    """The cache-hit fast path: run the shape's compiled tape.

    The tape golden-checks every op and every output against this
    request's traced (or recorded) values.  Any failure propagates so
    the caller can fall back to the full flow.
    """
    recording = ValueRecorder.of(trace_program.tracer)
    if len(recording) != entry.template.n_trace:
        raise ValueError(
            f"recording has {len(recording)} values, "
            f"the cached shape {entry.template.n_trace}"
        )
    t0 = perf_counter()
    sim = entry.compiled.run(recording)
    obs.histogram(FLOW_STAGE_SECONDS, stage="simulate").observe(perf_counter() - t0)
    _record_simulation(obs, sim)
    obs.counter(FLOW_REQUESTS, path="hit").inc()
    return FlowResult(
        trace_program=trace_program,
        problem=entry.problem,
        schedule=entry.schedule,
        fsm=entry.fsm,
        simulation=sim,
        cache_hit=True,
        fallback=False,
        cache_key=key,
        replay=entry.replay,
        _assemble=functools.partial(_rebind, entry.template, trace_program),
    )


def _rebind(template, trace_program: TraceProgram) -> MicroProgram:
    """A hit's microprogram, assembled on demand from the template."""
    if trace_program.retrace is not None:
        trace_program = trace_program.retrace()
    return template.rebind(trace_program.tracer.trace)
