"""Schedule representation, validation, and Table-I-style rendering."""

from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Dict, List, Optional, Set, Tuple

from ..trace.ops import Unit
from .jobshop import JobShopProblem


class ScheduleError(ValueError):
    """Raised when a schedule violates a datapath constraint."""


@dataclass
class Schedule:
    """An assignment of issue cycles to tasks.

    ``start[i]`` is the issue cycle of task i.  The makespan is the
    cycle in which the last result becomes available (issue + latency
    of the last finishing task).
    """

    problem: JobShopProblem
    start: List[int]
    method: str = "unknown"

    def completion(self) -> List[int]:
        """``completion()[i]``: the cycle task i's result leaves its unit."""
        return list(map(add, self.start, self.problem.latencies))

    @property
    def makespan(self) -> int:
        return max(self.completion(), default=0)

    def stable_hash(self) -> str:
        """Deterministic digest of (problem shape, start times, method).

        Unlike Python's per-process ``hash``, this is stable across
        runs and processes; the serve-layer artifact cache uses it to
        prove that equal workload shapes yield byte-identical schedules.
        """
        import hashlib

        h = hashlib.sha256()
        h.update(self.problem.fingerprint().encode())
        h.update(f";{self.method};".encode())
        h.update(",".join(map(str, self.start)).encode())
        return h.hexdigest()

    # -- validation ----------------------------------------------------
    def validate(self) -> None:
        """Check every datapath constraint; raise ScheduleError on violation.

        1. Precedence with latency: a consumer issues no earlier than
           the cycle its operand becomes available (producer issue +
           producer latency), possibly the same cycle via forwarding.
        2. Unit occupancy: at most one issue per unit per cycle
           (pipelined, II = 1).
        3. Register-file ports: per cycle at most ``read_ports`` source
           operands fetched from the RF (forwarded operands are free)
           and at most ``write_ports`` results written back.
        """
        prob = self.problem
        mach = prob.machine
        start = self.start
        if len(start) != prob.size:
            raise ScheduleError("schedule length mismatch")
        if any(s < 0 for s in start):
            raise ScheduleError("negative issue cycle")
        done = self.completion()
        forwarding = mach.forwarding

        # 1. precedences: the producer's result leaves its unit at cycle
        # (issue + latency).  With forwarding a consumer may issue in
        # exactly that cycle (bypass network); without forwarding it
        # must wait one more cycle for the register-file write.
        bypass = 0 if forwarding else 1
        for t in prob.tasks:
            issue = start[t.index]
            for d in t.deps:
                if issue < done[d] + bypass:
                    raise ScheduleError(
                        f"task {t.index} issued at {issue} before "
                        f"operand {d} available at {done[d] + bypass}"
                    )

        # 2. unit occupancy: issue cycles taken, [add/sub, multiplier]
        busy: Tuple[Set[int], Set[int]] = (set(), set())
        for t, on_mult, cyc in zip(prob.tasks, prob.on_multiplier, start):
            cycles = busy[on_mult]
            if cyc in cycles:
                raise ScheduleError(
                    f"unit {t.unit.value} double-issued in cycle {cyc}"
                )
            cycles.add(cyc)

        # 3. register-file ports: reads follow the mux-selected operand
        # (t.reads), not the timing dependencies.
        reads: Dict[int, int] = {}
        writes: Dict[int, int] = {}
        for t, cyc, wb in zip(prob.tasks, start, done):
            n_reads = t.external_reads
            for r in t.reads:
                if not (forwarding and cyc == done[r]):
                    n_reads += 1
            if n_reads:
                reads[cyc] = reads.get(cyc, 0) + n_reads
            writes[wb] = writes.get(wb, 0) + 1
        for cyc, n in reads.items():
            if n > mach.read_ports:
                raise ScheduleError(f"{n} register reads in cycle {cyc}")
        for cyc, n in writes.items():
            if n > mach.write_ports:
                raise ScheduleError(f"{n} register writes in cycle {cyc}")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except ScheduleError:
            return False
        return True

    # -- reporting -------------------------------------------------------
    def utilization(self, unit: Unit) -> float:
        """Issued-cycles / makespan for one unit."""
        n = self.problem.unit_load(unit)
        return n / self.makespan if self.makespan else 0.0

    def render_table(self, max_cycles: Optional[int] = None) -> str:
        """Render the per-cycle issue table in the style of paper Table I."""
        prob = self.problem
        lat = prob.machine.latency
        by_cycle: Dict[int, Dict[str, str]] = {}
        for t in prob.tasks:
            cyc = self.start[t.index]
            cell = by_cycle.setdefault(cyc, {})
            srcs = ",".join(f"v{prob.tasks[d].uid}" for d in t.deps)
            if t.unit is Unit.MULTIPLIER:
                cell["mult"] = f"{t.kind.value}({srcs})->v{t.uid}"
            else:
                cell["addsub"] = f"{t.kind.value}({srcs})->v{t.uid}"
            wb = cyc + lat(t.unit)
            wb_cell = by_cycle.setdefault(wb, {})
            wb_cell.setdefault("writeback", "")
            sep = " " if not wb_cell["writeback"] else "; "
            wb_cell["writeback"] += f"{sep}v{t.uid}".strip()

        lines = [
            f"{'Cycle':>5} | {'Fp2 Mult':<34} | {'Fp2 Add/Sub':<30} | Write back",
            "-" * 100,
        ]
        last = self.makespan
        if max_cycles is not None:
            last = min(last, max_cycles)
        for cyc in range(last + 1):
            cell = by_cycle.get(cyc, {})
            lines.append(
                f"{cyc:>5} | {cell.get('mult', ''):<34} | "
                f"{cell.get('addsub', ''):<30} | {cell.get('writeback', '')}"
            )
        return "\n".join(lines)

    def summary(self) -> str:
        prob = self.problem
        return (
            f"{self.method}: makespan={self.makespan} cycles, "
            f"{prob.size} ops (lower bound {prob.lower_bound()}), "
            f"mult util {self.utilization(Unit.MULTIPLIER):.0%}, "
            f"addsub util {self.utilization(Unit.ADDSUB):.0%}"
        )

