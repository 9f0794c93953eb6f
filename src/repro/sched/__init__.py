"""Automated instruction scheduling (the paper's Section III-C flow).

Trace -> job-shop problem -> schedule, with three solver tiers:

* :func:`sequential_schedule` — no ILP at all (worst-case baseline);
* :func:`list_schedule` / :func:`block_limited_schedule` — greedy
  critical-path list scheduling, whole-program or hand-style blocks;
* :func:`cp_schedule` — constraint-programming branch-and-bound with
  proven optimality for kernel-sized instances (the CP Optimizer
  substitute).
"""

from .cp_scheduler import CPResult, SearchBudgetExceeded, cp_schedule
from .modulo import (
    CarriedDependency,
    LoopKernel,
    ModuloSchedule,
    kernel_from_traces,
    modulo_schedule,
    validate_by_unrolling,
)
from .jobshop import (
    JobShopProblem,
    MachineSpec,
    MuxResolution,
    Task,
    problem_from_trace,
    resolve_muxes,
)
from .list_scheduler import (
    block_limited_schedule,
    list_schedule,
    sequential_schedule,
)
from .schedule import Schedule, ScheduleError

__all__ = [
    "CPResult",
    "CarriedDependency",
    "LoopKernel",
    "ModuloSchedule",
    "kernel_from_traces",
    "modulo_schedule",
    "validate_by_unrolling",
    "JobShopProblem",
    "MachineSpec",
    "MuxResolution",
    "Schedule",
    "ScheduleError",
    "SearchBudgetExceeded",
    "Task",
    "block_limited_schedule",
    "cp_schedule",
    "list_schedule",
    "problem_from_trace",
    "resolve_muxes",
    "sequential_schedule",
]
