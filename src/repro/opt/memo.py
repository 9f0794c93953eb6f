"""Memoized sub-DAG scheduling: solve the recurring kernel once.

The full scalar-multiplication trace is dominated by the 64-iteration
main loop; every iteration is the same micro-op kernel.  Whole-program
list scheduling re-discovers that kernel 64 times.  This module instead

1. detects the recurring segment (period detection over the task kind
   sequence, bounded by the trace's recorded sections),
2. partitions the task list into contiguous segments (prefix, the
   repeats, suffix),
3. solves each *unique* segment once — memoized by a cheap structural
   signature (per-task ``(kind, local deps, local reads, external read
   count)``), which is uid-free so repeated iterations hash identically
   and needs no Task construction for reused segments — and validates
   each unique sub-schedule once,
4. stitches the per-segment schedules with an **overlap-aware placement
   scan**: each segment is placed at the smallest offset that satisfies
   its cross-segment data dependencies and fits the global unit / read
   port / write port usage maps (a drain between segments — the
   block-limited baseline — is measurably worse on cycles).

Placement is conservative where it must be: a cross-segment operand is
always charged a read port (its producer sits at an arbitrary offset,
so forwarding cannot be assumed), which can only over-count against the
port budget.  The stitched whole-program schedule can therefore be
validated once at the end (:func:`memoized_schedule` does by default),
and the datapath simulation still golden-checks every writeback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..sched.jobshop import JobShopProblem, Task
from ..sched.list_scheduler import list_schedule
from ..sched.schedule import Schedule
from ..trace.ops import UNIT_OF

#: Minimum repeats before the memoized path engages (below this, plain
#: whole-program list scheduling is both faster and tighter).
MIN_REPEATS = 4
#: Candidate period range (in tasks) for the repeat detector.
MIN_PERIOD = 4
MAX_PERIOD = 512


@dataclass
class MemoSchedStats:
    """How the stitcher decomposed and reused one problem."""

    segments_total: int = 0
    segments_solved: int = 0   # unique sub-problems actually solved
    segments_reused: int = 0   # instances served from the memo
    period: int = 0            # detected repeat length, in tasks
    repeats: int = 0


@dataclass
class _SegmentPlan:
    """Shape-level artifacts of one unique segment (memoized)."""

    schedule: Schedule
    makespan: int
    # (relative_cycle, on_multiplier) for every issue in the segment.
    unit_profile: List[Tuple[int, bool]] = field(default_factory=list)
    # relative_cycle -> conservatively-counted register reads.
    reads: Dict[int, int] = field(default_factory=dict)
    # relative_cycle -> writebacks landing that cycle.
    writes: Dict[int, int] = field(default_factory=dict)


#: One distinct char per arithmetic op kind (string index == task index).
_KIND_CHAR = {"mul": "m", "sqr": "q", "add": "a", "sub": "s",
              "neg": "n", "conj": "c"}


def _kind_string(tasks: Sequence[Task]) -> str:
    """One char per task (kind identity), for fast period detection."""
    return "".join(_KIND_CHAR.get(t.kind.value, "?") for t in tasks)


def detect_repeats(
    tasks: Sequence[Task], spans: Optional[Sequence[Tuple[int, int]]] = None
) -> Optional[Tuple[int, int, int]]:
    """Find ``(rep_start, period, count)`` of a repeating task block.

    Searches each candidate span (default: the whole task list) for the
    smallest period whose block repeats at least :data:`MIN_REPEATS`
    times ending at the span's end, then extends the run of repeats
    backward as far as it goes.  Purely a *segmentation* heuristic —
    correctness never depends on it (segments that turn out not to
    share a fingerprint are simply solved individually).
    """
    n = len(tasks)
    spans = list(spans or []) + [(0, n)]
    s = _kind_string(tasks)
    for lo, hi in spans:
        lo, hi = max(0, lo), min(n, hi)
        length = hi - lo
        if length < MIN_REPEATS * MIN_PERIOD:
            continue
        sub = s[lo:hi]
        for period in range(MIN_PERIOD, min(MAX_PERIOD, length // MIN_REPEATS) + 1):
            block = sub[length - period:]
            count = 1
            while (
                count * period + period <= length
                and sub[length - (count + 1) * period: length - count * period]
                == block
            ):
                count += 1
            if count >= MIN_REPEATS and count * period >= length // 2:
                return (hi - count * period, period, count)
    return None


def _segment_signature(
    problem: JobShopProblem, lo: int, hi: int
) -> Tuple[Tuple, List[Tuple[int, int]]]:
    """Local shape of tasks [lo, hi) plus its cross-segment dep edges.

    The signature — ``(kind, local deps, local reads, external read
    count)`` per task — is everything the segment's *standalone*
    schedule depends on, with no Task objects constructed; it doubles
    as the memo key (uid-free, so repeated iterations hash equal) and
    as the recipe :func:`_plan_segment` builds the sub-problem from on
    a memo miss.  Cross edges (dependencies on earlier segments) vary
    per instance and feed the placement scan.
    """
    sig: List[Tuple] = []
    cross: List[Tuple[int, int]] = []
    for t in problem.tasks[lo:hi]:
        local = t.index - lo
        deps = []
        for d in t.deps:
            if d >= lo:
                deps.append(d - lo)
            else:
                cross.append((local, d))
        reads = tuple(r - lo for r in t.reads if r >= lo)
        external = t.external_reads + len(t.reads) - len(reads)
        sig.append((t.kind, tuple(deps), reads, external))
    return tuple(sig), cross


def _plan_segment(
    signature: Tuple, machine, solver: str = "list"
) -> _SegmentPlan:
    """Solve + validate one unique segment and profile its resource use.

    ``solver="cp"`` runs the branch-and-bound CP scheduler per segment —
    this is what makes proven-optimal scheduling affordable on the full
    workload: iterative deepening over a 28-task kernel is near-instant,
    while the same search over the whole 2300-task problem takes
    seconds per infeasible makespan trial.
    """
    sub_tasks = [
        Task(
            index=i,
            uid=i,
            unit=UNIT_OF[kind],
            deps=deps,
            kind=kind,
            reads=reads,
            external_reads=external,
        )
        for i, (kind, deps, reads, external) in enumerate(signature)
    ]
    sub = JobShopProblem(tasks=sub_tasks, machine=machine)
    if solver == "cp":
        from ..sched.cp_scheduler import cp_schedule

        sched = cp_schedule(sub).schedule
    else:
        sched = list_schedule(sub, method="memo-seg")
    sched.validate()
    lat = sub.latencies
    on_mult = sub.on_multiplier
    forwarding = machine.forwarding
    plan = _SegmentPlan(schedule=sched, makespan=sched.makespan)
    for t in sub.tasks:
        c = sched.start[t.index]
        plan.unit_profile.append((c, on_mult[t.index]))
        n_reads = t.external_reads
        for r in t.reads:
            ready = sched.start[r] + lat[r]
            if not (forwarding and c == ready):
                n_reads += 1
        if n_reads:
            plan.reads[c] = plan.reads.get(c, 0) + n_reads
        wb = c + lat[t.index]
        plan.writes[wb] = plan.writes.get(wb, 0) + 1
    return plan


def memoized_schedule(
    problem: JobShopProblem,
    sections: Optional[Sequence[Tuple[str, int, int]]] = None,
    validate: bool = True,
    solver: str = "list",
) -> Tuple[Schedule, MemoSchedStats]:
    """Schedule via memoized segments + overlap-aware stitching.

    ``sections`` (the tracer's ``(name, uid_lo, uid_hi)`` spans) bound
    the repeat search; when detection finds no qualifying repetition the
    problem falls back to one whole-program schedule with ``solver``
    (validated), so the function never does worse than the baseline
    path on correctness — only the solve cost changes.  ``solver="cp"``
    applies the CP branch-and-bound per unique segment.
    """
    stats = MemoSchedStats()
    spans: List[Tuple[int, int]] = []
    if sections:
        # Map uid spans to task-index spans: task uids are ascending, so
        # a binary search per boundary suffices.
        import bisect

        uids = [t.uid for t in problem.tasks]
        best = max(sections, key=lambda s: s[2] - s[1])
        spans.append(
            (bisect.bisect_left(uids, best[1]), bisect.bisect_left(uids, best[2]))
        )
    found = detect_repeats(problem.tasks, spans)
    if found is None:
        if solver == "cp":
            from ..sched.cp_scheduler import cp_schedule

            sched = cp_schedule(problem).schedule
        else:
            sched = list_schedule(problem)
        if validate:
            sched.validate()
        stats.segments_total = stats.segments_solved = 1
        return sched, stats

    rep_start, period, count = found
    stats.period, stats.repeats = period, count
    bounds: List[Tuple[int, int]] = []
    if rep_start:
        bounds.append((0, rep_start))
    for i in range(count):
        bounds.append((rep_start + i * period, rep_start + (i + 1) * period))
    tail = rep_start + count * period
    if tail < problem.size:
        bounds.append((tail, problem.size))
    stats.segments_total = len(bounds)

    machine = problem.machine
    lat = problem.latencies
    forwarding = machine.forwarding
    memo: Dict[Tuple, _SegmentPlan] = {}
    start = [-1] * problem.size
    # Busy cycles per unit, indexed by on_multiplier: [add/sub, multiplier].
    unit_busy: Tuple[set, set] = (set(), set())
    reads_used: Dict[int, int] = {}
    writes_used: Dict[int, int] = {}

    for lo, hi in bounds:
        signature, cross = _segment_signature(problem, lo, hi)
        plan = memo.get(signature)
        if plan is None:
            plan = _plan_segment(signature, machine, solver)
            memo[signature] = plan
            stats.segments_solved += 1
        else:
            stats.segments_reused += 1
        rel = plan.schedule.start
        # Minimal offset honoring every cross-segment dependency: the
        # consumer issues no earlier than the producer's writeback
        # (forwarding allows equality; without it, one cycle later).
        offset = 0
        for local, dep in cross:
            ready = start[dep] + lat[dep]
            if not forwarding:
                ready += 1
            offset = max(offset, ready - rel[local])
        # Scan upward past unit and port conflicts against the global
        # usage maps.  Checks are ordered cheapest-reject-first.
        while True:
            ok = True
            for c, on_mult in plan.unit_profile:
                if offset + c in unit_busy[on_mult]:
                    ok = False
                    break
            if ok:
                for c, n in plan.reads.items():
                    if reads_used.get(offset + c, 0) + n > machine.read_ports:
                        ok = False
                        break
            if ok:
                for c, n in plan.writes.items():
                    if writes_used.get(offset + c, 0) + n > machine.write_ports:
                        ok = False
                        break
            if ok:
                break
            offset += 1
        # Commit the placement.
        for c, on_mult in plan.unit_profile:
            unit_busy[on_mult].add(offset + c)
        for c, n in plan.reads.items():
            reads_used[offset + c] = reads_used.get(offset + c, 0) + n
        for c, n in plan.writes.items():
            writes_used[offset + c] = writes_used.get(offset + c, 0) + n
        for local in range(hi - lo):
            start[lo + local] = offset + rel[local]

    sched = Schedule(problem=problem, start=start, method="memo-stitch")
    if validate:
        sched.validate()
    return sched, stats
