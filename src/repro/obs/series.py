"""The declaration table: every ``repro_*`` metric series, declared once.

Each :class:`Series` gives a metric's name, kind, label names, one-line
help and report section.  The table drives the Prometheus ``# HELP``
lines, the export schema gate (:func:`repro.obs.export.validate_export`
rejects an undeclared ``repro_*`` name or a wrong kind), the sections
of :func:`repro.obs.export.render_report`, and the reference tables of
``docs/observability.md`` (:func:`reference_markdown`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = ["SECTIONS", "SERIES", "Series", "declared", "reference_markdown"]


@dataclass(frozen=True)
class Series:
    """One declared metric series."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    labels: Tuple[str, ...]
    section: str
    help: str


#: Report/doc sections in display order: key -> title.
SECTIONS: Dict[str, str] = {
    "curve": "curve constants (repro.curve.committed)",
    "flow": "flow stages (repro.flow)",
    "datapath": "datapath profile (repro.rtl.datapath)",
    "opt": "trace optimizer (repro.opt)",
    "cache": "flow-artifact cache (repro.serve.cache)",
    "serve": "serving engine (repro.serve.engine)",
    "msm": "batch verification / MSM (repro.serve.engine)",
    "frontend": "frontend (continuous batching)",
    "net": "network front door (TCP)",
    "resilience": "resilience (pool / breaker / retries / deadlines)",
}


def _s(name: str, kind: str, labels: str, section: str, text: str) -> Series:
    return Series(name, kind, tuple(labels.split()), section, text)


SERIES: Tuple[Series, ...] = (
    _s("repro_curve_constants_fallbacks_total", "counter", "", "curve",
       "committed curve constants that failed the load check, so the "
       "process derived them from scratch"),
    _s("repro_flow_stage_seconds", "histogram", "stage", "flow",
       "wall time per flow stage (trace, problem, optimize, solve, regalloc, "
       "assemble, rebind, simulate)"),
    _s("repro_flow_requests_total", "counter", "path", "flow",
       "flow passes by path: miss, hit (cached fast path), fallback"),
    _s("repro_datapath_runs_total", "counter", "", "datapath",
       "datapath simulations executed"),
    _s("repro_datapath_cycles_total", "counter", "", "datapath",
       "total simulated datapath cycles"),
    _s("repro_datapath_unit_issues_total", "counter", "unit", "datapath",
       "cycles the unit (mult, addsub) accepted a new op"),
    _s("repro_datapath_unit_busy_cycles_total", "counter", "unit", "datapath",
       "cycles with any op in flight in the unit"),
    _s("repro_datapath_forward_uses_total", "counter", "unit", "datapath",
       "operands forwarded from a unit output instead of a register read"),
    _s("repro_datapath_regfile_reads_total", "counter", "", "datapath",
       "register-file read-port traffic"),
    _s("repro_datapath_regfile_writes_total", "counter", "", "datapath",
       "register-file write-port traffic"),
    _s("repro_datapath_regfile_read_ports_max", "gauge", "", "datapath",
       "peak read ports used in one cycle (max gauge)"),
    _s("repro_datapath_regfile_write_ports_max", "gauge", "", "datapath",
       "peak write ports used in one cycle (max gauge)"),
    _s("repro_opt_runs_total", "counter", "level", "opt",
       "trace-optimizer invocations by level"),
    _s("repro_opt_ops_removed_total", "counter", "pass", "opt",
       "micro-ops removed per rewrite pass (cse, fold, dve)"),
    _s("repro_opt_segments_total", "counter", "outcome", "opt",
       "memoized-scheduler segments: solved or reused"),
    _s("repro_cache_events_total", "counter", "event", "cache",
       "flow-artifact cache events: hit, miss, eviction, fallback"),
    _s("repro_serve_items_total", "counter", "kind outcome", "serve",
       "per-item outcomes (ok, error, dedup) by canonical job kind (`?` if unknown)"),
    _s("repro_serve_latency_seconds", "histogram", "kind", "serve",
       "per-item latency of successful items"),
    _s("repro_serve_errors_total", "counter", "kind", "serve",
       "isolated per-item failures by failure kind"),
    _s("repro_serve_chunk_requeues_total", "counter", "", "serve",
       "worker chunks requeued after a crash, timeout or pickling fault"),
    _s("repro_serve_chunk_retries_total", "counter", "", "serve",
       "re-executions of requeued chunks (pool retries, serial recovery)"),
    _s("repro_msm_batches_total", "counter", "outcome", "msm",
       "weighted batch checks: accepted wholesale or fallback (bisection)"),
    _s("repro_msm_items_total", "counter", "verdict", "msm",
       "per-item verdicts of items past the `verify` domain check: valid, invalid, error"),
    _s("repro_msm_fallback_verifies_total", "counter", "", "msm",
       "per-item simulated verifications forced by batch rejection"),
    _s("repro_msm_batch_size", "histogram", "", "msm",
       "items per MSM-mode verification batch"),
    _s("repro_msm_simulated_cycles_per_op", "gauge", "", "msm",
       "modelled cycles per item of the last MSM-mode batch"),
    _s("repro_msm_model_cycles_total", "counter", "", "msm",
       "window-kernel-extrapolated cycles of every MSM evaluated"),
    _s("repro_frontend_queue_depth", "gauge", "kind", "frontend",
       "per-kind queue high-water mark (max gauge)"),
    _s("repro_frontend_batch_size", "histogram", "kind", "frontend",
       "requests per flush"),
    _s("repro_frontend_flush_wait_seconds", "histogram", "kind", "frontend",
       "oldest request's queue wait at flush time"),
    _s("repro_frontend_e2e_latency_seconds", "histogram", "kind", "frontend",
       "submit-to-resolve latency per request"),
    _s("repro_frontend_admissions_total", "counter", "kind outcome", "frontend",
       "admission decisions: accepted, rejected, shed, deadline"),
    _s("repro_frontend_flushes_total", "counter", "kind reason", "frontend",
       "flushes by trigger: size, deadline, drain"),
    _s("repro_frontend_flush_errors_total", "counter", "kind", "frontend",
       "whole-flush engine failures (every caller got a Failed)"),
    _s("repro_frontend_resolved_total", "counter", "kind outcome", "frontend",
       "admitted requests resolved: ok, failed, cancelled (closed undrained or withdrawn)"),
    _s("repro_net_connections_total", "counter", "event", "net",
       "connection lifecycle: opened, closed, refused"),
    _s("repro_net_connections_open", "gauge", "", "net",
       "currently registered connections"),
    _s("repro_net_frames_total", "counter", "direction type", "net",
       "frames by direction (in, out) and frame type"),
    _s("repro_net_bytes_total", "counter", "direction", "net",
       "wire bytes by direction, length prefix included"),
    _s("repro_net_requests_total", "counter", "kind outcome", "net",
       "RESPONSE frames by wire job kind (\"?\" for any other) and status: ok, failed, overloaded"),
    _s("repro_net_protocol_errors_total", "counter", "kind", "net",
       "connection-level protocol violations by taxonomy slug"),
    _s("repro_net_request_latency_seconds", "histogram", "", "net",
       "REQUEST arrival to RESPONSE written, server side"),
    _s("repro_pool_state", "gauge", "pool", "resilience",
       "resident pool state: 0 stopped, 1 running, 2 broken"),
    _s("repro_pool_workers", "gauge", "pool", "resilience",
       "worker slots in the current pool"),
    _s("repro_pool_restarts_total", "counter", "pool reason", "resilience",
       "pool rebuilds by cause: crash, timeout, broken, resize"),
    _s("repro_pool_restart_denied_total", "counter", "pool", "resilience",
       "restarts refused by the token bucket (storm limiting)"),
    _s("repro_pool_breakages_total", "counter", "pool reason", "resilience",
       "breakage observations: broken pool, hung chunk, failed probe"),
    _s("repro_pool_health_probes_total", "counter", "pool outcome", "resilience",
       "post-restart health probe round-trips: ok, failed"),
    _s("repro_breaker_state", "gauge", "breaker", "resilience",
       "circuit state: 0 closed, 1 half-open, 2 open"),
    _s("repro_breaker_transitions_total", "counter", "breaker to", "resilience",
       "breaker state transitions by destination"),
    _s("repro_breaker_trips_total", "counter", "breaker", "resilience",
       "closed or half-open to open trips"),
    _s("repro_breaker_short_circuits_total", "counter", "", "resilience",
       "batches that skipped the pool because the breaker was open"),
    _s("repro_retry_attempts_total", "counter", "", "resilience",
       "chunk re-executions on the pool (retry rounds)"),
    _s("repro_retry_backoff_seconds", "histogram", "", "resilience",
       "jittered backoff sleeps actually slept"),
    _s("repro_retry_exhausted_total", "counter", "", "resilience",
       "chunks out of pool attempts, sent to serial recovery"),
    _s("repro_deadline_expired_total", "counter", "stage", "resilience",
       "expired requests by stage: admission, queued, engine"),
)

_BY_NAME: Dict[str, Series] = {s.name: s for s in SERIES}


def declared(name: str) -> Optional[Series]:
    """The :class:`Series` declared under ``name``, or None."""
    return _BY_NAME.get(name)


def reference_markdown() -> str:
    """The metric reference tables of ``docs/observability.md``."""
    out = []
    for key, title in SECTIONS.items():
        out += [f"### {title}", "", "| name | type | labels | meaning |",
                "|---|---|---|---|"]
        out += [
            f"| `{s.name}` | {s.kind} | "
            f"{', '.join(f'`{label}`' for label in s.labels)} | {s.help} |"
            for s in SERIES if s.section == key
        ]
        out.append("")
    return "\n".join(out)
