"""Tests for the observability layer: primitives, exports, integrations.

Covers cycles per datapath run staying undiluted by failed items,
bounded latency reservoirs, thread-safe cache counters, race-free
default-engine construction, registry snapshot/merge round-trips,
export schema validation against the declaration table, Prometheus
rendering with ``# HELP``, the table-driven report, and end-to-end
metric recording through the flow and the serving engine (serial and
worker fan-out).
"""

import json
import random
import threading

import pytest

from repro.obs import (
    DEFAULT_RESERVOIR_CAP,
    ExportSchemaError,
    MetricsRegistry,
    NullRegistry,
    Reservoir,
    counter_value,
    declared,
    ensure_valid,
    percentile,
    render_report,
    to_prometheus,
    validate_export,
    write_exports,
)


# -- reservoir ---------------------------------------------------------


def test_reservoir_exact_under_cap():
    r = Reservoir(cap=16)
    for v in [3.0, 1.0, 2.0]:
        r.append(v)
    assert r.count == 3
    assert len(r) == 3
    assert r.total == 6.0
    assert r.mean == 2.0
    assert sorted(r) == [1.0, 2.0, 3.0]
    assert r.percentile(0) == 1.0
    assert r.percentile(100) == 3.0


def test_reservoir_bounded_over_cap():
    r = Reservoir(cap=32)
    for i in range(5000):
        r.append(float(i))
    assert len(r) == 32          # retained set is capped...
    assert r.count == 5000       # ...the stream count is exact
    assert r.total == sum(range(5000))
    assert all(0 <= s < 5000 for s in r.samples)


def test_reservoir_deterministic():
    def fill():
        r = Reservoir(cap=8)
        for i in range(1000):
            r.append(float(i))
        return list(r.samples)

    assert fill() == fill()  # per-instance seeded RNG


def test_reservoir_merge_counts_and_bounds():
    a, b = Reservoir(cap=16), Reservoir(cap=16)
    for i in range(100):
        a.append(float(i))
    for i in range(300):
        b.append(1000.0 + i)
    a.merge(b)
    assert a.count == 400
    assert a.total == sum(range(100)) + sum(1000.0 + i for i in range(300))
    assert len(a) == 16
    # Weighted draw: the 3x larger stream should dominate the sample.
    assert sum(1 for s in a.samples if s >= 1000.0) > len(a.samples) // 2


def test_reservoir_percentile_tolerance():
    # Quantiles over the retained subsample track the exact quantiles.
    rng = random.Random(42)
    values = [rng.random() for _ in range(5000)]
    r = Reservoir(cap=512)
    for v in values:
        r.append(v)
    for q in (50, 90, 99):
        assert abs(r.percentile(q) - percentile(values, q)) < 0.1


# -- registry ----------------------------------------------------------


def test_registry_counter_gauge_histogram():
    reg = MetricsRegistry()
    reg.counter("c_total", kind="x").inc()
    reg.counter("c_total", kind="x").inc(2)
    reg.counter("c_total", kind="y").inc(5)
    assert reg.value("c_total", kind="x") == 3
    assert reg.value("c_total", kind="y") == 5

    g = reg.gauge("g_max", mode="max")
    g.set(4)
    g.set(2)
    assert reg.value("g_max") == 4
    reg.gauge("g_last").set(7)
    reg.gauge("g_last").set(1)
    assert reg.value("g_last") == 1

    h = reg.histogram("h_seconds")
    for v in (0.0001, 0.003, 2.0):
        h.observe(v)
    assert h.count == 3
    assert h.sum == pytest.approx(2.0031)
    assert sum(h.bucket_counts) == 3

    with pytest.raises(TypeError):
        reg.gauge("c_total", kind="x")
    with pytest.raises(ValueError):
        reg.counter("c_total", kind="x").inc(-1)


def test_registry_time_span():
    reg = MetricsRegistry()
    with reg.time("span_seconds", stage="s"):
        pass
    h = reg.histogram("span_seconds", stage="s")
    assert h.count == 1
    assert h.sum >= 0.0


def test_snapshot_merge_round_trip():
    reg = MetricsRegistry()
    reg.counter("ops_total", kind="sm").inc(7)
    reg.gauge("peak", mode="max").set(9)
    h = reg.histogram("lat_seconds")
    for v in (0.001, 0.02, 0.5):
        h.observe(v)
    snap = reg.snapshot()

    other = MetricsRegistry()
    other.merge_snapshot(snap)
    other.merge_snapshot(snap)  # merging twice doubles counters...
    assert other.value("ops_total", kind="sm") == 14
    assert other.value("peak") == 9  # ...but max-gauges keep the max
    h2 = other.histogram("lat_seconds")
    assert h2.count == 6
    assert h2.sum == pytest.approx(2 * h.sum)
    assert [2 * c for c in h.bucket_counts] == h2.bucket_counts


def test_merge_rejects_mismatched_schema_and_bounds():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.merge_snapshot({"schema": "something/else"})
    reg.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
    incoming = MetricsRegistry()
    incoming.histogram("h", buckets=(1.0, 3.0)).observe(0.5)
    with pytest.raises(ValueError):
        reg.merge_snapshot(incoming.snapshot())


def test_snapshot_is_json_safe():
    reg = MetricsRegistry()
    reg.histogram("h").observe(1e9)  # lands in the +Inf bucket
    text = json.dumps(reg.snapshot())
    assert "Infinity" not in text
    assert "+Inf" in text


def test_null_registry_records_nothing():
    reg = NullRegistry()
    reg.counter("c").inc()
    reg.histogram("h").observe(1.0)
    with reg.time("t"):
        pass
    snap = reg.snapshot()
    assert snap["counters"] == [] and snap["histograms"] == []
    assert validate_export(snap) == []


# -- export / validation -----------------------------------------------


def test_validate_export_accepts_real_snapshot():
    reg = MetricsRegistry()
    reg.counter("a_total").inc(3)
    reg.gauge("b", mode="max").set(2)
    reg.histogram("c_seconds").observe(0.01)
    assert validate_export(reg.snapshot()) == []
    assert ensure_valid(reg.snapshot())["schema"] == "repro.obs/v1"


def test_validate_export_rejects_bad_documents():
    assert validate_export([]) == ["document is not a JSON object"]
    assert validate_export({"schema": "nope"})

    reg = MetricsRegistry()
    reg.counter("a_total").inc(3)
    doc = reg.snapshot()
    doc["counters"][0]["value"] = -1
    assert any("negative" in e for e in validate_export(doc))

    reg2 = MetricsRegistry()
    reg2.histogram("h").observe(0.01)
    doc2 = reg2.snapshot()
    doc2["histograms"][0]["buckets"][0]["count"] += 1  # sum != count
    assert any("sum to" in e for e in validate_export(doc2))
    with pytest.raises(ExportSchemaError):
        ensure_valid(doc2)


def test_prometheus_rendering():
    reg = MetricsRegistry()
    reg.counter("req_total", path="hit").inc(4)
    reg.gauge("ports_max", mode="max").set(2)
    h = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(5.0)
    text = to_prometheus(reg.snapshot())
    assert '# TYPE req_total counter' in text
    assert 'req_total{path="hit"} 4' in text
    assert '# TYPE lat_seconds histogram' in text
    # Cumulative le-series: 1 under 0.1, 2 under 1.0, 3 under +Inf.
    assert 'lat_seconds_bucket{le="0.1"} 1' in text
    assert 'lat_seconds_bucket{le="1"} 2' in text
    assert 'lat_seconds_bucket{le="+Inf"} 3' in text
    assert 'lat_seconds_count 3' in text


def test_declared_series_carry_help_and_gate_the_schema():
    reg = MetricsRegistry()
    reg.counter("repro_datapath_cycles_total").inc(10)
    text = to_prometheus(reg.snapshot())
    help_text = declared("repro_datapath_cycles_total").help
    assert (
        f"# HELP repro_datapath_cycles_total {help_text}\n"
        "# TYPE repro_datapath_cycles_total counter\n"
    ) in text
    assert validate_export(reg.snapshot()) == []

    bad = MetricsRegistry()
    bad.counter("repro_not_declared_total").inc()
    bad.counter("repro_pool_state").inc()  # declared as a gauge
    errors = validate_export(bad.snapshot())
    assert any("repro_not_declared_total is not a declared series" in e
               for e in errors)
    assert any("repro_pool_state is declared as a gauge" in e for e in errors)


def test_observability_doc_tables_match_declaration_table():
    """docs/observability.md carries the table-rendered reference
    verbatim; regenerate it with ``repro.obs.series.reference_markdown()``."""
    from pathlib import Path

    from repro.obs.series import reference_markdown

    doc = (Path(__file__).resolve().parents[1] / "docs" / "observability.md").read_text()
    begin = "<!-- metric-reference:begin -->\n"
    end = "<!-- metric-reference:end -->"
    assert doc.count(begin) == 1 and doc.count(end) == 1
    assert doc[doc.index(begin) + len(begin):doc.index(end)] == reference_markdown()


def test_write_exports_round_trip(tmp_path):
    reg = MetricsRegistry()
    reg.counter("x_total").inc()
    json_path, prom_path = write_exports(
        reg.snapshot(), str(tmp_path / "m.json")
    )
    with open(json_path) as fh:
        doc = json.load(fh)
    assert validate_export(doc) == []
    assert doc == reg.snapshot()
    with open(prom_path) as fh:
        assert "x_total 1" in fh.read()


def test_write_exports_refuses_invalid(tmp_path):
    target = tmp_path / "m.json"
    with pytest.raises(ExportSchemaError):
        write_exports({"schema": "bad"}, str(target))
    assert not target.exists()  # nothing written on failure


def test_render_report_mentions_derived_figures():
    reg = MetricsRegistry()
    reg.counter("repro_datapath_cycles_total").inc(100)
    reg.counter("repro_datapath_unit_issues_total", unit="mult").inc(60)
    reg.counter("repro_datapath_unit_issues_total", unit="addsub").inc(40)
    report = render_report(reg.snapshot())
    assert "schedule density" in report
    assert "50.0%" in report  # (60 + 40) / (2 * 100)


def test_render_report_network_front_door_section():
    reg = MetricsRegistry()
    reg.counter("repro_net_connections_total", event="opened").inc(3)
    reg.counter("repro_net_connections_total", event="refused").inc(1)
    reg.gauge("repro_net_connections_open").set(2)
    reg.counter("repro_net_requests_total", kind="sm", outcome="ok").inc(40)
    reg.counter("repro_net_requests_total", kind="sm",
                outcome="deadline").inc(2)
    reg.counter("repro_net_frames_total", direction="in",
                type="REQUEST").inc(42)
    reg.counter("repro_net_bytes_total", direction="in").inc(9000)
    reg.counter("repro_net_protocol_errors_total", kind="bad_body").inc(1)
    reg.histogram("repro_net_request_latency_seconds").observe(0.012)
    report = render_report(reg.snapshot())
    assert "network front door (TCP)" in report
    assert 'repro_net_connections_total{event="opened"} 3' in report
    assert 'repro_net_connections_total{event="refused"} 1' in report
    assert 'repro_net_connections_open 2' in report
    assert 'repro_net_requests_total{kind="sm",outcome="ok"} 40' in report
    assert 'repro_net_protocol_errors_total{kind="bad_body"} 1' in report
    assert "repro_net_request_latency_seconds n=1 mean 12.0 ms" in report


def test_render_report_skips_net_section_when_absent():
    reg = MetricsRegistry()
    reg.counter("repro_datapath_cycles_total").inc(10)
    assert "network front door" not in render_report(reg.snapshot())


# -- per-op figures under failures --------------------------------------


def test_cycles_per_op_divides_by_ok_count():
    """Failed items simulate nothing: cycles per datapath run stay the
    per-operation hardware cost under poison, never diluted by the
    failures."""
    from repro.curve.encoding import encode_point
    from repro.curve.point import AffinePoint
    from repro.dsa import fourq_dh

    rng = random.Random(0xC1C)
    pubs = [fourq_dh.generate_keypair(rng).public_bytes for _ in range(2)]
    engine, reg = _private_engine()
    result = engine.batch_dh(
        5, [pubs[0], b"\xff" * 32, encode_point(AffinePoint.identity()), pubs[1]]
    )
    assert result.ok_count == 2
    snap = reg.snapshot()
    runs = counter_value(snap, "repro_datapath_runs_total")
    assert runs == 2  # one per successful item, none for the failures
    assert counter_value(snap, "repro_datapath_cycles_total") / runs == 2069
    assert "cycles per run        : 2069.0" in render_report(snap)


def test_cycles_per_op_all_failed_is_zero():
    engine, reg = _private_engine()
    result = engine.batch_dh(5, [b"\xff" * 32, b"\xff" * 32])
    assert result.ok_count == 0
    snap = reg.snapshot()
    assert counter_value(snap, "repro_datapath_cycles_total") == 0
    assert counter_value(snap, "repro_serve_errors_total", kind="decoding") == 2
    assert "cycles per run" not in render_report(snap)


def test_latency_reservoirs_are_bounded():
    reg = MetricsRegistry()
    hist = reg.histogram("repro_serve_latency_seconds", kind="sm")
    for i in range(5000):
        hist.observe(float(i))
    (entry,) = reg.snapshot()["histograms"]
    assert len(entry["samples"]) <= DEFAULT_RESERVOIR_CAP
    assert entry["count"] == 5000
    # Quantiles still answer over the retained samples.
    assert 0.0 <= entry["p50"] < 5000.0


def test_worker_partial_histograms_fold_on_merge():
    """A worker's partial registry folds home: counters add, histogram
    counts add and retained samples union exactly under the cap."""
    parent, worker = MetricsRegistry(), MetricsRegistry()
    for reg, samples in ((parent, (0.1, 0.2)), (worker, (0.3, 0.4))):
        reg.counter("repro_serve_items_total", kind="sm", outcome="ok").inc(2)
        for v in samples:
            reg.histogram("repro_serve_latency_seconds", kind="sm").observe(v)
    worker.counter("repro_serve_errors_total", kind="timeout").inc()
    parent.merge_snapshot(worker.snapshot())
    snap = parent.snapshot()
    assert counter_value(snap, "repro_serve_items_total") == 4
    assert counter_value(snap, "repro_serve_errors_total", kind="timeout") == 1
    hist = parent.histogram("repro_serve_latency_seconds", kind="sm")
    assert hist.count == 4
    assert sorted(hist.reservoir.samples) == [0.1, 0.2, 0.3, 0.4]


# -- thread-safety -----------------------------------------------------


def test_registry_threaded_increments_lossless():
    reg = MetricsRegistry()
    N, T = 2000, 8

    def work():
        c = reg.counter("hammer_total")
        h = reg.histogram("hammer_seconds")
        for _ in range(N):
            c.inc()
            h.observe(0.001)

    threads = [threading.Thread(target=work) for _ in range(T)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert reg.value("hammer_total") == N * T
    assert reg.histogram("hammer_seconds").count == N * T


def test_cache_counters_threaded():
    from repro.serve.cache import FlowArtifactCache, FlowArtifacts

    cache = FlowArtifactCache(max_entries=4)
    N, T = 1000, 8
    evicted = []

    def work(t):
        n = 0
        for i in range(N):
            key = f"t{t}-{i}"
            n += cache.put(FlowArtifacts(key, None, None, None, None, "", None, None))
            cache.get(key)
        evicted.append(n)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(T)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    # Every put beyond the bound evicted exactly one entry; none lost.
    assert len(cache) == 4
    assert sum(evicted) == N * T - 4


def test_default_engine_race_free():
    import repro.serve.engine as engine_mod

    saved = engine_mod._DEFAULT_ENGINE
    engine_mod._DEFAULT_ENGINE = None
    try:
        winners = []
        barrier = threading.Barrier(8)

        def work():
            barrier.wait()
            winners.append(engine_mod.default_engine())

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(winners) == 8
        assert all(w is winners[0] for w in winners)
    finally:
        engine_mod._DEFAULT_ENGINE = saved


def test_cache_survives_pickling_without_lock():
    import pickle

    from repro.serve.cache import FlowArtifactCache, FlowArtifacts

    cache = FlowArtifactCache(max_entries=1)
    cache.put(FlowArtifacts("k", None, None, None, None, "", None, None))
    clone = pickle.loads(pickle.dumps(cache))
    assert clone.get("k") is not None
    # The restored lock works.
    assert clone.put(FlowArtifacts("k2", None, None, None, None, "", None, None)) == 1


# -- end-to-end integration --------------------------------------------


def _private_engine(**kwargs):
    from repro.serve import BatchEngine

    reg = MetricsRegistry()
    return BatchEngine(metrics=reg, **kwargs), reg


def test_engine_records_flow_and_serve_metrics():
    engine, reg = _private_engine()
    engine.warm()
    result = engine.batch_scalarmult([3, 5, 7])
    assert result.ok_count == 3
    snap = reg.snapshot()
    assert validate_export(snap) == []
    assert counter_value(snap, "repro_serve_items_total", outcome="ok") == 3
    # warm() + 3 batch items each ran one simulation.
    assert counter_value(snap, "repro_datapath_runs_total") == 4
    assert counter_value(snap, "repro_datapath_cycles_total") > 0
    stages = {
        e["labels"]["stage"]
        for e in snap["histograms"]
        if e["name"] == "repro_flow_stage_seconds"
    }
    # Miss path + hit path both observed.
    assert {"trace", "problem", "solve", "regalloc",
            "assemble", "rebind", "simulate"} <= stages
    assert counter_value(snap, "repro_flow_requests_total", path="hit") == 3
    assert counter_value(snap, "repro_cache_events_total", event="hit") == 3
    # Derived utilization is well-formed (cf. paper Table I density).
    cycles = counter_value(snap, "repro_datapath_cycles_total")
    issues = counter_value(snap, "repro_datapath_unit_issues_total")
    assert 0.0 < issues / (2 * cycles) <= 1.0


def test_engine_records_error_taxonomy():
    from repro.curve.encoding import encode_point
    from repro.curve.point import AffinePoint

    engine, reg = _private_engine()
    good = encode_point(AffinePoint.generator())
    bad_decode = b"\xff" * 32
    small_order = encode_point(AffinePoint.identity())
    result = engine.batch_dh(5, [good, bad_decode, small_order])
    assert len(result.errors) == 2
    snap = reg.snapshot()
    assert counter_value(snap, "repro_serve_items_total", outcome="error") == 2
    assert counter_value(snap, "repro_serve_errors_total", kind="decoding") == 1
    assert counter_value(snap, "repro_serve_errors_total", kind="small_order") == 1


def test_worker_registry_merge_matches_serial():
    """Counter totals from a workers=2 poisoned batch equal the serial run."""
    from repro.curve.encoding import encode_point
    from repro.curve.point import AffinePoint
    from repro.dsa import fourq_dh

    rng = random.Random(0xABC)
    me = fourq_dh.generate_keypair(rng)
    # Distinct peers (dedup is per-chunk in parallel mode) + 2 poisoned.
    pubs = [fourq_dh.generate_keypair(rng).public_bytes for _ in range(6)]
    pubs[1] = b"\xff" * 32
    pubs[4] = encode_point(AffinePoint.identity())

    serial_engine, serial_reg = _private_engine()
    serial = serial_engine.batch_dh(me.private, pubs, workers=0)
    par_engine, par_reg = _private_engine()
    parallel = par_engine.batch_dh(me.private, pubs, workers=2)

    assert parallel.results == serial.results
    s, p = serial_reg.snapshot(), par_reg.snapshot()
    for name, labels in [
        ("repro_serve_items_total", {"outcome": "ok"}),
        ("repro_serve_items_total", {"outcome": "error"}),
        ("repro_serve_errors_total", {"kind": "decoding"}),
        ("repro_serve_errors_total", {"kind": "small_order"}),
        ("repro_datapath_runs_total", {}),
        ("repro_datapath_cycles_total", {}),
    ]:
        assert counter_value(p, name, **labels) == counter_value(
            s, name, **labels
        ), name
    assert validate_export(p) == []
