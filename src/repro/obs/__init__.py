"""Observability layer: metrics you can trust, pipeline-wide.

The paper justifies its datapath with *measured* numbers — Table I
schedule density, Fig. 3/4 latency-energy curves.  ``repro.obs`` gives
the software pipeline the same footing: one process-wide
:class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges, and
bounded histograms that

* :func:`repro.flow.run_flow` records per-stage wall-time spans into
  (problem build / solve / regalloc / assemble-vs-rebind / simulate),
* the :class:`~repro.rtl.datapath.DatapathSimulator` feeds per-unit
  occupancy counters (multiplier/add-sub busy cycles, forwarding uses,
  register-file port pressure) — a pipeline-utilization figure directly
  comparable to the paper's Table I schedule density,
* the serving engine, front door and TCP server thread through
  requests, with worker processes serializing their partial registries
  home to be merged.

The registry is the only metrics store, and every ``repro_*`` series is
declared once, in :mod:`repro.obs.series`.

Exports: JSON (schema ``repro.obs/v1``) and Prometheus text via
``repro serve --metrics-out PATH`` (or ``serve-net``) or
:func:`repro.obs.export.export_registry`; ``repro metrics`` renders a
human report.  See ``docs/observability.md`` for metric names, units,
and merge semantics.
"""

from .export import (
    ExportSchemaError,
    counter_value,
    ensure_valid,
    export_registry,
    render_report,
    to_prometheus,
    validate_export,
    write_exports,
)
from .metrics import (
    DEFAULT_RESERVOIR_CAP,
    DEFAULT_TIME_BUCKETS,
    SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Reservoir,
    get_registry,
    percentile,
    set_registry,
)
from .series import SERIES, Series, declared

__all__ = [
    "Counter",
    "DEFAULT_RESERVOIR_CAP",
    "DEFAULT_TIME_BUCKETS",
    "ExportSchemaError",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "Reservoir",
    "SCHEMA",
    "SERIES",
    "Series",
    "counter_value",
    "declared",
    "ensure_valid",
    "export_registry",
    "get_registry",
    "percentile",
    "render_report",
    "set_registry",
    "to_prometheus",
    "validate_export",
    "write_exports",
]
