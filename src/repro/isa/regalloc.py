"""Register allocation for scheduled micro-programs.

Maps every SSA value of a scheduled trace onto a physical register of
the datapath's register file.  Uses linear-scan over the schedule's
cycle axis:

* a computed value is *defined* at its writeback cycle
  (issue + unit latency) and *dies* after its last consumer's issue
  cycle (or never, for program outputs);
* constants and inputs are preloaded — alive from cycle 0;
* a value consumed only through the forwarding path the same cycle it
  leaves the unit is still written back (the paper's Table I writes
  every result), so it occupies a register from writeback to last use.

The resulting register count is reported — it determines the register
file the ASIC needs (and feeds the area model).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from ..sched.jobshop import JobShopProblem, MuxResolution, resolve_muxes
from ..sched.schedule import Schedule
from ..trace.ops import MicroOp, OpKind


@dataclass
class Allocation:
    """Result of register allocation.

    ``reg_of[uid]`` is the physical register holding trace value uid;
    ``preload[reg]`` gives the initial register-file contents
    (constants and inputs); ``register_count`` is the file size used.
    """

    reg_of: Dict[int, int]
    preload: Dict[int, Tuple[int, int]]
    register_count: int
    live_ranges: Dict[int, Tuple[int, int]]


def allocate_registers(
    problem: JobShopProblem,
    schedule: Schedule,
    trace: Sequence[MicroOp],
    outputs: Sequence[int],
    muxes: Optional[MuxResolution] = None,
) -> Allocation:
    """Linear-scan allocation; raises if the schedule is inconsistent.

    ``muxes`` is :func:`~repro.sched.jobshop.resolve_muxes` of this
    same ``trace``, when the caller has it already.
    """
    if muxes is None:
        muxes = resolve_muxes(trace)
    start = schedule.start
    done = schedule.completion()
    horizon = max(done, default=0) + 1
    uid_to_index = problem.uid_to_index

    # def/last-use per uid (cycle numbers).
    def_cycle: Dict[int, int] = {}
    last_use: Dict[int, int] = {}
    preloaded = (OpKind.CONST, OpKind.INPUT)
    select = OpKind.SELECT
    alternatives_of = muxes.alternatives
    for op in trace:
        uid = op.uid
        idx = uid_to_index.get(uid)
        if idx is not None:
            def_cycle[uid] = done[idx]
            issue = start[idx]
            for s in op.srcs:
                # Every mux alternative must stay live until the read.
                for alt in alternatives_of.get(s, (s,)):
                    prev = last_use.get(alt, 0)
                    last_use[alt] = issue if issue > prev else prev
        elif op.kind in preloaded:
            def_cycle[uid] = 0
        elif op.kind is select:
            continue  # a mux: no register of its own
        else:  # non-arithmetic op outside our kinds — should not happen
            raise ValueError(f"unschedulable op in trace: {op!r}")
    for uid in outputs:
        last_use[muxes.leaf(uid)] = horizon

    # Linear scan ordered by definition cycle.
    events = sorted(def_cycle.items(), key=itemgetter(1, 0))
    free: List[int] = []
    next_reg = 0
    reg_of: Dict[int, int] = {}
    # (expiry_cycle, reg) heap of active values.
    active: List[Tuple[int, int]] = []

    for uid, defc in events:
        end = last_use.get(uid)
        if end is None:
            # Dead value (result never used — e.g. the constant-time
            # discarded negation); it still needs a register between
            # writeback and ... nothing.  Give it a register for its
            # writeback cycle only.
            end = defc
        # Retire values whose lifetime ended strictly before this def.
        while active and active[0][0] < defc:
            _, reg = heapq.heappop(active)
            heapq.heappush(free, reg)
        if free:
            reg = heapq.heappop(free)
        else:
            reg = next_reg
            next_reg += 1
        reg_of[uid] = reg
        heapq.heappush(active, (end, reg))

    preload = {
        reg_of[op.uid]: op.value for op in trace if op.kind in preloaded
    }
    live_ranges = {
        uid: (def_cycle[uid], last_use.get(uid, def_cycle[uid]))
        for uid in def_cycle
    }
    return Allocation(
        reg_of=reg_of,
        preload=preload,
        register_count=next_reg,
        live_ranges=live_ranges,
    )


def register_pressure(
    problem: "JobShopProblem",
    schedule: "Schedule",
    trace,
    outputs,
) -> List[int]:
    """Live-value count per cycle (the register-pressure curve).

    The peak of this curve is the information-theoretic floor for the
    register file size under the given schedule; the linear-scan
    allocator lands on or near it (asserted in the tests).  Useful for
    architecture studies: scheduling for speed raises pressure, and
    this function quantifies the trade.
    """
    alloc = allocate_registers(problem, schedule, trace, outputs)
    horizon = schedule.makespan + 2
    delta = [0] * (horizon + 2)
    for uid, (start_c, end_c) in alloc.live_ranges.items():
        s = max(0, min(start_c, horizon))
        e = max(0, min(end_c, horizon))
        if e < s:
            e = s
        delta[s] += 1
        delta[e + 1] -= 1
    pressure = []
    acc = 0
    for d in delta[: horizon + 1]:
        acc += d
        pressure.append(acc)
    return pressure
