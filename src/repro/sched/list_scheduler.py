"""Greedy schedulers: sequential baseline, list scheduling, block-limited.

The list scheduler is the workhorse for full-program schedules
(thousands of ops); the CP solver (:mod:`repro.sched.cp_scheduler`)
refines kernel-sized blocks to proven optimality.  The sequential and
block-limited variants reproduce the baselines the paper argues
against: no instruction-level parallelism at all, and hand-scheduling
"divided into multiple small blocks ... which results in the local
optima due to the reduced scheduling flexibility" (Section III-C).
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, List, Optional, Sequence, Tuple

from .jobshop import JobShopProblem, Task
from .schedule import Schedule


def sequential_schedule(problem: JobShopProblem) -> Schedule:
    """Issue ops strictly in order, each waiting for the previous result.

    Models a microcoded engine with no overlap: the cost every
    conventional accelerator pays without instruction scheduling.
    Without forwarding, a consumer additionally waits one cycle for the
    register-file write of its operand.
    """
    lat = problem.latencies
    bypass = 0 if problem.machine.forwarding else 1
    start: List[int] = []
    clock = 0
    for t in problem.tasks:
        issue = clock
        for d in t.deps:
            issue = max(issue, start[d] + lat[d] + bypass)
        start.append(issue)
        clock = issue + lat[t.index]
    return Schedule(problem=problem, start=start, method="sequential")


def _critical_path_priority(
    problem: JobShopProblem, succs: Optional[List[List[int]]] = None
) -> List[int]:
    """Priority = longest latency path from the task to any sink."""
    lat = problem.latencies
    if succs is None:
        succs = problem.successors()
    height = [0] * problem.size
    for t in reversed(problem.tasks):
        h = 0
        for s in succs[t.index]:
            if height[s] > h:
                h = height[s]
        height[t.index] = h + lat[t.index]
    return height


def list_schedule(
    problem: JobShopProblem,
    priority: Optional[Sequence[int]] = None,
    method: str = "list",
) -> Schedule:
    """Cycle-driven list scheduling with port and forwarding awareness.

    Each cycle, ready tasks are considered in descending priority
    (default: critical-path height; ties by task index); a task is
    issued if its unit is free, read ports remain for its
    non-forwarded operands, and a write port is free at its completion
    cycle.

    Tasks whose operands are not yet available wait in a heap keyed by
    the cycle they become data-ready; available tasks sit in one
    priority-sorted list per unit, so a cycle merges the two lists in
    priority order, skips the rest of a unit's list once that unit has
    issued, and ends once both have.  Cycles in which no task is
    available are skipped outright.
    """
    mach = problem.machine
    lat = problem.latencies
    on_mult = problem.on_multiplier
    succs = problem.successors()
    prio = (
        list(priority)
        if priority is not None
        else _critical_path_priority(problem, succs)
    )
    tasks = problem.tasks
    n = problem.size
    # Issue order: rank r is the r-th task by (-priority, index).
    order = sorted(range(n), key=lambda i: (-prio[i], i))
    rank = [0] * n
    for r, i in enumerate(order):
        rank[i] = r

    forwarding = mach.forwarding
    read_ports = mach.read_ports
    write_ports = mach.write_ports
    bypass = 0 if forwarding else 1
    start = [-1] * n
    unscheduled = n
    indegree = [len(t.deps) for t in tasks]
    # earliest issue cycle (data-ready) per task, updated as deps finish
    data_ready = [0] * n
    waiting: List[Tuple[int, int]] = []  # heap of (data-ready cycle, rank)
    # available tasks' ranks, ascending: [multiplier, add/sub]
    available: Tuple[List[int], List[int]] = ([], [])
    for i in range(n):
        if indegree[i] == 0:
            available[0 if on_mult[i] else 1].append(rank[i])
    available[0].sort()
    available[1].sort()

    writes_used: Dict[int, int] = {}
    cycle = 0
    max_stall = 4 * (n + 8) * (mach.mult_latency + mach.addsub_latency)
    while unscheduled:
        while waiting and waiting[0][0] <= cycle:
            r = heapq.heappop(waiting)[1]
            insort(available[0 if on_mult[order[r]] else 1], r)
        if not (available[0] or available[1]):
            if not waiting:  # pragma: no cover - defensive (cyclic deps)
                raise RuntimeError("list scheduler failed to make progress")
            cycle = waiting[0][0]
            continue
        if cycle > max_stall:  # pragma: no cover - defensive
            raise RuntimeError("list scheduler failed to make progress")
        reads_now = 0
        issued = [-1, -1]  # position of the issued rank per unit list
        mults, addsubs = available
        m_pos = 0 if mults else -1
        a_pos = 0 if addsubs else -1
        # Merge the two lists in rank order; a unit that has issued (or
        # whose list is exhausted) drops out.
        while m_pos >= 0 or a_pos >= 0:
            if a_pos < 0 or (m_pos >= 0 and mults[m_pos] < addsubs[a_pos]):
                unit, pos = 0, m_pos
                r = mults[pos]
                m_pos = pos + 1 if pos + 1 < len(mults) else -1
            else:
                unit, pos = 1, a_pos
                r = addsubs[pos]
                a_pos = pos + 1 if pos + 1 < len(addsubs) else -1
            idx = order[r]
            t = tasks[idx]
            # port checks (reads = mux-selected operands only)
            n_reads = t.external_reads
            for d in t.reads:
                if not (forwarding and cycle == start[d] + lat[d]):
                    n_reads += 1
            if reads_now + n_reads > read_ports:
                continue
            wb = cycle + lat[idx]
            if writes_used.get(wb, 0) >= write_ports:
                continue
            # issue
            start[idx] = cycle
            reads_now += n_reads
            writes_used[wb] = writes_used.get(wb, 0) + 1
            issued[unit] = pos
            if unit == 0:
                m_pos = -1
            else:
                a_pos = -1
            unscheduled -= 1
            avail = wb + bypass
            for s in succs[idx]:
                indegree[s] -= 1
                if data_ready[s] < avail:
                    data_ready[s] = avail
                if indegree[s] == 0:
                    heapq.heappush(waiting, (data_ready[s], rank[s]))
        for unit in (0, 1):
            if issued[unit] >= 0:
                del available[unit][issued[unit]]
        cycle += 1
    return Schedule(problem=problem, start=start, method=method)


def block_limited_schedule(
    problem: JobShopProblem, block_size: int = 16
) -> Schedule:
    """Schedule in small consecutive blocks with full drain in between.

    Mimics manual scheduling where "the entire sequence of thousands of
    microinstructions [is] divided into multiple small blocks having
    only tens of microinstructions" (paper Section III-C).  Blocks are
    scheduled independently; block i+1 starts only after every result
    of block i has been written back.
    """
    mach = problem.machine
    start = [-1] * problem.size
    offset = 0
    for lo in range(0, problem.size, block_size):
        hi = min(lo + block_size, problem.size)
        sub_tasks = []
        for t in problem.tasks[lo:hi]:
            deps = tuple(d - lo for d in t.deps if d >= lo)
            reads = tuple(r - lo for r in t.reads if r >= lo)
            external = t.external_reads + sum(1 for r in t.reads if r < lo)
            sub_tasks.append(
                Task(
                    index=t.index - lo,
                    uid=t.uid,
                    unit=t.unit,
                    deps=deps,
                    kind=t.kind,
                    reads=reads,
                    external_reads=external,
                    name=t.name,
                )
            )
        sub = JobShopProblem(tasks=sub_tasks, machine=mach)
        sched = list_schedule(sub, method="block")
        for i, s in enumerate(sched.start):
            start[lo + i] = offset + s
        # Full drain before the next block; without forwarding the next
        # block must also wait for the last register-file write.
        offset += sched.makespan + (0 if mach.forwarding else 1)
    return Schedule(
        problem=problem, start=start, method=f"block{block_size}"
    )
