"""Export, validation, and rendering of metrics snapshots.

A snapshot (``MetricsRegistry.snapshot()``) is a plain-data document,
schema ``repro.obs/v1``::

    {
      "schema": "repro.obs/v1",
      "counters":   [{"name", "labels", "value"}, ...],
      "gauges":     [{"name", "labels", "value", "mode"}, ...],
      "histograms": [{"name", "labels", "count", "sum",
                      "buckets": [{"le": <float or "+Inf">, "count"}, ...],
                      "samples": [...], "p50", "p99"}, ...]
    }

Bucket counts are stored *non-cumulative* (merge by elementwise add);
:func:`to_prometheus` accumulates them into the cumulative ``le``
series the text exposition format requires.  ``samples`` is the
histogram reservoir's retained set (bounded, see
:data:`~repro.obs.metrics.DEFAULT_RESERVOIR_CAP`), carried so merges
downstream can keep estimating quantiles.

:func:`validate_export` checks a document against the schema — and
every ``repro_*`` name against the declaration table of
:mod:`repro.obs.series` — and returns a list of problems (empty =
valid); :func:`write_exports` validates and writes both the JSON and
the Prometheus text file.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

from .metrics import SCHEMA, MetricsRegistry
from .series import SECTIONS, declared


class ExportSchemaError(ValueError):
    """A metrics export document failed schema validation."""


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_entry(entry, section: str, i: int, errors: List[str]) -> bool:
    """Shared name/labels validation; returns False when unusable."""
    where = f"{section}[{i}]"
    if not isinstance(entry, dict):
        errors.append(f"{where}: not an object")
        return False
    if not isinstance(entry.get("name"), str) or not entry["name"]:
        errors.append(f"{where}: missing or empty 'name'")
        return False
    labels = entry.get("labels")
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        errors.append(f"{where} ({entry['name']}): 'labels' must map str->str")
        return False
    return True


def validate_export(doc) -> List[str]:
    """Validate a snapshot document; returns problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(doc.get(section), list):
            errors.append(f"'{section}' missing or not a list")
    if errors:
        return errors

    for section in ("counters", "gauges", "histograms"):
        for entry in doc[section]:
            name = entry.get("name") if isinstance(entry, dict) else None
            if not isinstance(name, str) or not name.startswith("repro_"):
                continue
            spec = declared(name)
            if spec is None:
                errors.append(f"{section}: {name} is not a declared series")
            elif spec.kind + "s" != section:
                errors.append(
                    f"{section}: {name} is declared as a {spec.kind}"
                )
    for i, entry in enumerate(doc["counters"]):
        if not _check_entry(entry, "counters", i, errors):
            continue
        if not _is_num(entry.get("value")) or entry["value"] < 0:
            errors.append(f"counter {entry['name']}: non-numeric or negative value")
    for i, entry in enumerate(doc["gauges"]):
        if not _check_entry(entry, "gauges", i, errors):
            continue
        if not _is_num(entry.get("value")):
            errors.append(f"gauge {entry['name']}: non-numeric value")
        if entry.get("mode") not in ("last", "max"):
            errors.append(f"gauge {entry['name']}: bad mode {entry.get('mode')!r}")
    for i, entry in enumerate(doc["histograms"]):
        if not _check_entry(entry, "histograms", i, errors):
            continue
        name = entry["name"]
        if not isinstance(entry.get("count"), int) or entry["count"] < 0:
            errors.append(f"histogram {name}: bad 'count'")
        if not _is_num(entry.get("sum")):
            errors.append(f"histogram {name}: bad 'sum'")
        buckets = entry.get("buckets")
        if not isinstance(buckets, list) or not buckets:
            errors.append(f"histogram {name}: 'buckets' missing or empty")
            continue
        bucket_total = 0
        last_bound = float("-inf")
        for b in buckets[:-1]:
            if not isinstance(b, dict) or not _is_num(b.get("le")):
                errors.append(f"histogram {name}: non-numeric bucket bound")
                break
            if b["le"] <= last_bound:
                errors.append(f"histogram {name}: bucket bounds not ascending")
                break
            last_bound = b["le"]
        if buckets[-1].get("le") != "+Inf":
            errors.append(f"histogram {name}: final bucket must be '+Inf'")
        for b in buckets:
            count = b.get("count") if isinstance(b, dict) else None
            if not isinstance(count, int) or count < 0:
                errors.append(f"histogram {name}: bad bucket count")
                break
            bucket_total += count
        else:
            if bucket_total != entry.get("count"):
                errors.append(
                    f"histogram {name}: bucket counts sum to {bucket_total}, "
                    f"'count' says {entry.get('count')}"
                )
        samples = entry.get("samples")
        if not isinstance(samples, list) or not all(_is_num(s) for s in samples):
            errors.append(f"histogram {name}: 'samples' must be a number list")
        elif isinstance(entry.get("count"), int) and len(samples) > entry["count"]:
            errors.append(f"histogram {name}: more retained samples than count")
    return errors


def ensure_valid(doc) -> dict:
    """Return ``doc`` if schema-valid, else raise :class:`ExportSchemaError`."""
    errors = validate_export(doc)
    if errors:
        raise ExportSchemaError(
            "metrics export failed schema validation:\n  " + "\n  ".join(errors)
        )
    return doc


def _prom_labels(labels: Dict[str, str], extra: Tuple[Tuple[str, str], ...] = ()) -> str:
    items = sorted(labels.items()) + list(extra)
    if not items:
        return ""
    def esc(v: str) -> str:
        return v.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    return "{" + ",".join(f'{k}="{esc(str(v))}"' for k, v in items) + "}"


def _prom_num(v) -> str:
    if v == int(v):
        return str(int(v))
    return repr(float(v))


def to_prometheus(doc: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Declared series (:mod:`repro.obs.series`) carry their ``# HELP``
    line ahead of ``# TYPE``.
    """
    lines: List[str] = []
    typed: set = set()

    def declare(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            spec = declared(name)
            if spec is not None:
                lines.append(f"# HELP {name} {spec.help}")
            lines.append(f"# TYPE {name} {kind}")

    for entry in doc["counters"]:
        declare(entry["name"], "counter")
        lines.append(
            f"{entry['name']}{_prom_labels(entry['labels'])} "
            f"{_prom_num(entry['value'])}"
        )
    for entry in doc["gauges"]:
        declare(entry["name"], "gauge")
        lines.append(
            f"{entry['name']}{_prom_labels(entry['labels'])} "
            f"{_prom_num(entry['value'])}"
        )
    for entry in doc["histograms"]:
        name = entry["name"]
        declare(name, "histogram")
        cumulative = 0
        for bucket in entry["buckets"]:
            cumulative += bucket["count"]
            le = bucket["le"]
            le_text = "+Inf" if le == "+Inf" else _prom_num(le)
            lines.append(
                f"{name}_bucket{_prom_labels(entry['labels'], (('le', le_text),))} "
                f"{cumulative}"
            )
        lines.append(
            f"{name}_sum{_prom_labels(entry['labels'])} {_prom_num(entry['sum'])}"
        )
        lines.append(
            f"{name}_count{_prom_labels(entry['labels'])} {entry['count']}"
        )
    return "\n".join(lines) + "\n"


def write_exports(doc: dict, json_path: str) -> Tuple[str, str]:
    """Validate ``doc`` and write JSON + Prometheus text side by side.

    The Prometheus file lands next to ``json_path`` with a ``.prom``
    suffix (``m.json`` -> ``m.prom``).  Raises
    :class:`ExportSchemaError` before writing anything if the document
    is invalid, so a bad export can never reach a scrape target.
    """
    ensure_valid(doc)
    root, ext = os.path.splitext(json_path)
    prom_path = (root if ext else json_path) + ".prom"
    with open(json_path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(prom_path, "w") as fh:
        fh.write(to_prometheus(doc))
    return json_path, prom_path


def _find(doc: dict, section: str, name: str, **labels: str):
    for entry in doc[section]:
        if entry["name"] == name and all(
            entry["labels"].get(k) == v for k, v in labels.items()
        ):
            yield entry


def counter_value(doc: dict, name: str, **labels: str) -> float:
    """Sum of every counter series matching name + label subset."""
    return sum(e["value"] for e in _find(doc, "counters", name, **labels))


def _row(section: str, entry: dict) -> str:
    """One report line: the series as Prometheus names it, then its value."""
    head = f"  {entry['name']}{_prom_labels(entry['labels'])}"
    if section != "histograms":
        return f"{head} {_prom_num(entry['value'])}"
    scale, unit = (1e3, " ms") if entry["name"].endswith("_seconds") else (1, "")
    mean = entry["sum"] / entry["count"] if entry["count"] else 0.0
    return (
        f"{head} n={entry['count']}"
        + "".join(
            f" {label} {value * scale:.1f}{unit}"
            for label, value in (("mean", mean), ("p50", entry["p50"]),
                                 ("p99", entry["p99"]))
        )
    )


def _paper_figures(doc: dict) -> List[str]:
    """The derived figures: cycles per datapath run, per-unit
    utilization, schedule density (cf. paper Table I) and the
    flow-artifact cache hit rate."""
    lines: List[str] = []
    cycles = counter_value(doc, "repro_datapath_cycles_total")
    if cycles:
        runs = counter_value(doc, "repro_datapath_runs_total")
        issues = {
            unit: counter_value(doc, "repro_datapath_unit_issues_total", unit=unit)
            for unit in ("mult", "addsub")
        }
        if runs:
            lines.append(f"  cycles per run        : {cycles / runs:.1f}")
        for unit, n in issues.items():
            busy = counter_value(
                doc, "repro_datapath_unit_busy_cycles_total", unit=unit
            )
            lines.append(
                f"  {unit + ' issue/busy':<22}: {n / cycles:6.1%} / {busy / cycles:6.1%}"
            )
        lines.append(
            f"  schedule density      : {sum(issues.values()) / (2 * cycles):6.1%}"
            "  (issue slots filled, cf. paper Table I)"
        )
    hits = counter_value(doc, "repro_cache_events_total", event="hit")
    misses = counter_value(doc, "repro_cache_events_total", event="miss")
    if hits + misses:
        lines.append(f"  cache hit rate        : {hits / (hits + misses):6.1%}")
    return ["paper figures"] + lines + [""] if lines else []


def render_report(doc: dict) -> str:
    """Human-readable report of a snapshot.

    One derived block (:func:`_paper_figures`) followed by every series
    in the document, grouped by the report section the declaration
    table (:mod:`repro.obs.series`) assigns it; series the table does
    not declare are listed last.
    """
    rows: Dict[str, List[str]] = {key: [] for key in SECTIONS}
    rows["other"] = []
    for section in ("counters", "gauges", "histograms"):
        for entry in doc[section]:
            spec = declared(entry["name"])
            rows[spec.section if spec else "other"].append(_row(section, entry))
    lines = _paper_figures(doc)
    titles = dict(SECTIONS, other="other series")
    for key, section_rows in rows.items():
        if section_rows:
            lines += [titles[key]] + sorted(section_rows) + [""]
    lines.append(
        f"series: {len(doc['counters'])} counters, {len(doc['gauges'])} gauges, "
        f"{len(doc['histograms'])} histograms"
    )
    return "\n".join(lines)


def export_registry(registry: MetricsRegistry, json_path: str) -> Tuple[str, str]:
    """Snapshot ``registry`` and write both export files (validated)."""
    return write_exports(registry.snapshot(), json_path)
