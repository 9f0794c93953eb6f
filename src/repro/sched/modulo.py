"""Software pipelining: iterative modulo scheduling of the loop kernel.

The paper's main loop runs 64 identical iterations; scheduling each
iteration in isolation leaves the multiplier idle while the tail of one
iteration waits on the adder chain.  Modulo scheduling overlaps
consecutive iterations at a fixed initiation interval II, bounded below
by

* **ResMII** — the busiest unit's load (15 multiplier slots), and
* **RecMII** — the loop-carried recurrence: the longest cycle through
  the dependence graph divided by its iteration distance.

This module implements Rau-style iterative modulo scheduling (height
priority, modulo reservation table, bounded eviction backtracking),
verifies the result by *unrolling*: the repeating pattern
``start(op, j) = sigma(op) + j * II`` is materialized for several
iterations and checked with the standard schedule validator, so every
port/forwarding/precedence rule holds exactly, not just modulo-ly.

The steady-state throughput result feeds the scheduling ablation: it is
the limit the paper's whole-program CP scheduling approaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..trace.ops import Unit
from .jobshop import JobShopProblem, Task
from .list_scheduler import _critical_path_priority
from .schedule import Schedule, ScheduleError


@dataclass(frozen=True)
class CarriedDependency:
    """A loop-carried edge: ``src`` of iteration j feeds ``dst`` of j+1."""

    src: int
    dst: int
    distance: int = 1


@dataclass
class LoopKernel:
    """One loop iteration plus its cross-iteration dependencies."""

    problem: JobShopProblem
    carried: List[CarriedDependency]

    def res_mii(self) -> int:
        """Resource-constrained minimum initiation interval."""
        return max(
            self.problem.unit_load(Unit.MULTIPLIER),
            self.problem.unit_load(Unit.ADDSUB),
            1,
        )

    def rec_mii(self) -> int:
        """Recurrence-constrained MII via iterative shortest-cycle check.

        For a candidate II, an edge (i -> j, distance d) imposes
        sigma_j - sigma_i >= lat_i - II * d.  The candidate is feasible
        w.r.t. recurrences iff the constraint graph has no positive
        cycle; we find the smallest such II by testing upward from 1
        with Bellman-Ford (kernels are tiny, this is instant).
        """
        lat = self.problem.machine.latency
        n = self.problem.size
        edges: List[Tuple[int, int, int, int]] = []
        for t in self.problem.tasks:
            for d in t.deps:
                edges.append((d, t.index, lat(self.problem.tasks[d].unit), 0))
        for c in self.carried:
            edges.append(
                (c.src, c.dst, lat(self.problem.tasks[c.src].unit), c.distance)
            )

        def feasible(ii: int) -> bool:
            dist = [0] * n
            for _ in range(n):
                changed = False
                for u, v, w, dd in edges:
                    need = dist[u] + w - ii * dd
                    if need > dist[v]:
                        dist[v] = need
                        changed = True
                if not changed:
                    return True
            return not changed

        ii = 1
        while not feasible(ii):
            ii += 1
            if ii > 4 * self.problem.lower_bound() + 8:  # pragma: no cover
                raise RuntimeError("recurrence MII search diverged")
        return ii

    def mii(self) -> int:
        return max(self.res_mii(), self.rec_mii())


@dataclass
class ModuloSchedule:
    """sigma assignments at initiation interval ii."""

    kernel: LoopKernel
    sigma: List[int]
    ii: int

    @property
    def steady_state_cycles_per_iteration(self) -> int:
        return self.ii

    def makespan_for(self, iterations: int) -> int:
        """Total cycles for ``iterations`` overlapped iterations."""
        lat = self.kernel.problem.machine.latency
        last = max(
            s + lat(t.unit)
            for s, t in zip(self.sigma, self.kernel.problem.tasks)
        )
        return (iterations - 1) * self.ii + last


def _ims_try(
    kernel: LoopKernel,
    ii: int,
    budget: int,
    jitter: Optional[Sequence[int]] = None,
) -> Optional[List[int]]:
    """One attempt of iterative modulo scheduling at interval ii.

    ``jitter`` perturbs the priority order (used by the randomized
    restarts in :func:`modulo_schedule` to escape greedy dead ends).
    """
    prob = kernel.problem
    lat = prob.machine.latency
    n = prob.size
    prio = _critical_path_priority(prob)
    if jitter is not None:
        prio = [p * 8 + j for p, j in zip(prio, jitter)]

    # Incoming edges with (src, weight, distance) per node.
    incoming: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    outgoing: List[List[Tuple[int, int, int]]] = [[] for _ in range(n)]
    for t in prob.tasks:
        for d in t.deps:
            w = lat(prob.tasks[d].unit)
            incoming[t.index].append((d, w, 0))
            outgoing[d].append((t.index, w, 0))
    for c in kernel.carried:
        w = lat(prob.tasks[c.src].unit)
        incoming[c.dst].append((c.src, w, c.distance))
        outgoing[c.src].append((c.dst, w, c.distance))

    sigma: List[Optional[int]] = [None] * n
    # Modulo reservation: (unit, residue) -> task occupying it.
    reservation: Dict[Tuple[Unit, int], int] = {}
    # Port reservation per residue (conservative: every operand reads).
    reads_res: Dict[int, int] = {}
    writes_res: Dict[int, int] = {}

    def task_reads(idx: int) -> int:
        t = prob.tasks[idx]
        return len(t.reads) + t.external_reads

    def place(idx: int, cycle: int) -> None:
        t = prob.tasks[idx]
        sigma[idx] = cycle
        reservation[(t.unit, cycle % ii)] = idx
        reads_res[cycle % ii] = reads_res.get(cycle % ii, 0) + task_reads(idx)
        wb = (cycle + lat(t.unit)) % ii
        writes_res[wb] = writes_res.get(wb, 0) + 1

    def unplace(idx: int) -> None:
        t = prob.tasks[idx]
        cycle = sigma[idx]
        assert cycle is not None
        del reservation[(t.unit, cycle % ii)]
        reads_res[cycle % ii] -= task_reads(idx)
        writes_res[(cycle + lat(t.unit)) % ii] -= 1
        sigma[idx] = None

    def fits(idx: int, cycle: int) -> bool:
        t = prob.tasks[idx]
        if (t.unit, cycle % ii) in reservation:
            return False
        if reads_res.get(cycle % ii, 0) + task_reads(idx) > prob.machine.read_ports:
            return False
        wb = (cycle + lat(t.unit)) % ii
        if writes_res.get(wb, 0) + 1 > prob.machine.write_ports:
            return False
        return True

    # Rau's IMS main loop: schedule by priority; on conflict evict.
    # sigma_cap keeps the prologue compact: an attempt that ratchets any
    # op beyond the cap is abandoned (the caller then grows II).
    sigma_cap = 3 * ii + prob.critical_path_bound()
    order = sorted(range(n), key=lambda i: (-prio[i], i))
    worklist = list(order)
    attempts = 0
    last_tried: Dict[int, int] = {}
    while worklist:
        attempts += 1
        if attempts > budget:
            return None
        idx = worklist.pop(0)
        lo = 0
        for src, w, dist in incoming[idx]:
            if sigma[src] is not None:
                lo = max(lo, sigma[src] + w - ii * dist)
        lo = max(lo, last_tried.get(idx, -1) + 1)
        if lo > sigma_cap:
            return None
        placed = False
        for cycle in range(lo, lo + ii):
            if fits(idx, cycle):
                place(idx, cycle)
                last_tried[idx] = cycle
                placed = True
                break
        if not placed:
            # Evict the occupant of the first candidate slot and force
            # this task there (Rau's displacement step).
            cycle = lo
            t = prob.tasks[idx]
            victim = reservation.get((t.unit, cycle % ii))
            if victim is not None:
                unplace(victim)
                worklist.append(victim)
            if not fits(idx, cycle):
                # Ports still blocked: push to the next cycle attempt.
                last_tried[idx] = cycle
                worklist.append(idx)
                continue
            place(idx, cycle)
            last_tried[idx] = cycle
        # Successors already scheduled too early must be rescheduled.
        for dst, w, dist in outgoing[idx]:
            if sigma[dst] is not None and sigma[dst] < sigma[idx] + w - ii * dist:
                unplace(dst)
                worklist.append(dst)
    # Normalize so min sigma is 0.
    base = min(s for s in sigma)  # type: ignore[arg-type]
    return [s - base for s in sigma]  # type: ignore[misc]


def modulo_schedule(
    kernel: LoopKernel,
    max_ii: Optional[int] = None,
    budget: int = 50_000,
    restarts: int = 12,
    seed: int = 0x51,
) -> ModuloSchedule:
    """Find a verified modulo schedule at the smallest feasible II.

    Tries II from MII upward with randomized-priority restarts per II;
    every candidate is verified by unrolling
    (see :func:`validate_by_unrolling`) before being accepted.
    """
    import random as _random

    rng = _random.Random(seed)
    mii = kernel.mii()
    top = max_ii if max_ii is not None else 3 * kernel.problem.lower_bound() + 8
    n = kernel.problem.size
    for ii in range(mii, top + 1):
        for attempt in range(restarts):
            jitter = None if attempt == 0 else [rng.randrange(8) for _ in range(n)]
            sigma = _ims_try(kernel, ii, budget, jitter)
            if sigma is None:
                continue
            ms = ModuloSchedule(kernel=kernel, sigma=sigma, ii=ii)
            try:
                validate_by_unrolling(ms, iterations=4)
            except ScheduleError:
                continue
            return ms
    raise RuntimeError("no feasible initiation interval found")


def validate_by_unrolling(ms: ModuloSchedule, iterations: int = 4) -> None:
    """Materialize the repeating pattern and run the full validator.

    Builds an unrolled problem (iteration copies chained by the carried
    dependencies) with ``start(op, j) = sigma(op) + j * II`` and
    validates precedences, unit occupancy, and ports exactly.
    """
    kernel = ms.kernel
    prob = kernel.problem
    n = prob.size
    tasks: List[Task] = []
    for j in range(iterations):
        for t in prob.tasks:
            deps = tuple(d + j * n for d in t.deps)
            reads = tuple(r + j * n for r in t.reads)
            external = t.external_reads
            if j > 0:
                extra = tuple(
                    c.src + (j - c.distance) * n
                    for c in kernel.carried
                    if c.dst == t.index and j - c.distance >= 0
                )
                deps = tuple(sorted(set(deps) | set(extra)))
                reads = reads + extra
                # These operands were external (preloaded Q) in the
                # kernel view; in the unrolled program they are produced
                # by the previous iteration, so stop double-counting.
                external = max(0, external - len(extra))
            tasks.append(
                Task(
                    index=t.index + j * n,
                    uid=t.uid + j * 10_000,
                    unit=t.unit,
                    deps=deps,
                    kind=t.kind,
                    reads=reads,
                    external_reads=external,
                    name=t.name,
                )
            )
    unrolled = JobShopProblem(tasks=tasks, machine=prob.machine)
    start = [
        ms.sigma[i % n] + (i // n) * ms.ii for i in range(n * iterations)
    ]
    Schedule(problem=unrolled, start=start, method=f"modulo(II={ms.ii})").validate()


def kernel_from_traces(single_iter_prog, chained_prog=None) -> LoopKernel:
    """Build a LoopKernel from a single-iteration trace.

    The carried dependencies connect each program output (the new Q)
    back to the task consuming the corresponding input (the old Q) —
    matched positionally: outputs are (Qx', Qy', Qz', Qta', Qtb') and
    inputs (Qx, Qy, Qz, Qta, Qtb).
    """
    from .jobshop import problem_from_trace, resolve_muxes

    tracer = single_iter_prog.tracer
    muxes = resolve_muxes(tracer.trace)
    problem = problem_from_trace(tracer.trace, muxes=muxes)
    # Every concrete uid each task may read (all mux alternatives).
    task_leaves = [
        {leaf for s in tracer.trace[t.uid].srcs for leaf in muxes.leaves(s)}
        for t in problem.tasks
    ]

    # Positional pairing input[i] <-> output[i].
    carried: List[CarriedDependency] = []
    for in_uid, out_uid in zip(tracer.inputs[:5], tracer.outputs[:5]):
        src = problem.uid_to_index.get(muxes.leaf(out_uid))
        if src is None:
            continue
        # Every task consuming this input gets a carried edge.
        for t, leaves in zip(problem.tasks, task_leaves):
            if in_uid in leaves:
                carried.append(CarriedDependency(src=src, dst=t.index))
    return LoopKernel(problem=problem, carried=carried)
