"""Properties of the serving layer: cache, batch engine, statistics.

The contract under test: caching and batching change *cost*, never
*results*.  Same-shape requests must produce the identical schedule
hash and byte-identical microprograms whether they take the cache-miss
or the cache-hit path; a poisoned cache entry must fall back to the
full flow (counted, self-healing) and still return the right answer.
"""

import dataclasses
import random

import pytest

from repro.curve.params import SUBGROUP_ORDER_N
from repro.curve.point import AffinePoint, random_subgroup_point
from repro.curve.scalarmult import scalar_mul_fourq
from repro.flow import run_flow
from repro.obs import MetricsRegistry, percentile, render_report
from repro.sched.jobshop import MachineSpec
from repro.serve import BatchEngine, BatchResult, Failed
from repro.serve.cache import FlowArtifactCache, FlowArtifacts, trace_shape_key
from repro.serve.engine import _chunk
from repro.trace import trace_loop_iteration, trace_scalar_mult
from tests.metrics_util import count, counted

CACHE_EVENTS = "repro_cache_events_total"


def _cache_events(reg):
    """(hit, miss, eviction, fallback) totals recorded in ``reg``."""
    return tuple(
        count(reg, CACHE_EVENTS, event=e)
        for e in ("hit", "miss", "eviction", "fallback")
    )


@pytest.fixture(scope="module")
def engine():
    eng = BatchEngine(metrics=MetricsRegistry())
    eng.warm()
    return eng



def _stub_entry(key: str) -> FlowArtifacts:
    return FlowArtifacts(
        key=key, problem=None, schedule=None, alloc=None, fsm=None, schedule_hash="",
        template=None, compiled=None,
    )


class TestShapeKey:
    def test_same_shape_same_key(self):
        """Any scalar, any point: one workload shape, one key."""
        cache = FlowArtifactCache()
        rng = random.Random(7)
        keys = {
            cache.key_for(
                trace_scalar_mult(
                    k=rng.randrange(1, SUBGROUP_ORDER_N),
                    point=random_subgroup_point(rng),
                    self_check=False,
                )
            )
            for _ in range(3)
        }
        assert len(keys) == 1

    def test_key_separates_shapes_and_machines(self):
        prog = trace_loop_iteration(random.Random(1))
        trace = prog.tracer.trace
        base = trace_shape_key(trace, MachineSpec(), "auto")
        assert trace_shape_key(trace, MachineSpec(), "auto") == base
        assert trace_shape_key(trace, MachineSpec(mult_latency=5), "auto") != base
        assert trace_shape_key(trace, MachineSpec(), "list") != base
        # Different inputs, same workload: the key ignores values.
        other = trace_loop_iteration(random.Random(2))
        assert trace_shape_key(other.tracer.trace, MachineSpec(), "auto") == base
        # Either sign routes through the constant-time mux, so the DAG
        # shape — and therefore the key — is identical for both signs.
        rerouted = trace_loop_iteration(random.Random(2), negate=False)
        assert trace_shape_key(rerouted.tracer.trace, MachineSpec(), "auto") == base


class TestHitMissEquivalence:
    def test_hit_path_matches_full_flow_byte_for_byte(self):
        """Miss, hit, and uncached flows agree on every artifact."""
        cache = FlowArtifactCache()
        rng = random.Random(0xA11CE)
        miss = run_flow(trace_loop_iteration(rng), cache=cache)
        assert not miss.cache_hit

        rng2 = random.Random(0xB0B)
        prog = trace_loop_iteration(rng2)
        hit = run_flow(prog, cache=cache)
        assert hit.cache_hit and not hit.fallback
        assert hit.schedule.stable_hash() == miss.schedule.stable_hash()
        assert hit.fsm.rom_kilobits == miss.fsm.rom_kilobits

        # Re-trace the same workload and run it with no cache at all:
        # the hit-path microprogram must equal assemble()'s output.
        plain = run_flow(trace_loop_iteration(random.Random(0xB0B)))
        assert hit.microprogram == plain.microprogram
        assert hit.simulation.outputs == plain.simulation.outputs

    def test_property_loop_many_workloads(self):
        """Seeded sweep: every cache-hit simulation equals the uncached one."""
        cache = FlowArtifactCache()
        reg = MetricsRegistry()
        # One priming run; both negate signs share the mux-selected
        # shape, so every later request (either sign) is a cache hit.
        run_flow(trace_loop_iteration(random.Random(0)), cache=cache, metrics=reg)
        run_flow(trace_loop_iteration(random.Random(0), negate=False),
                 cache=cache, metrics=reg)
        for seed in range(1, 5):
            negate = bool(seed % 2)
            cached = run_flow(
                trace_loop_iteration(random.Random(seed), negate=negate),
                cache=cache, metrics=reg,
            )
            plain = run_flow(trace_loop_iteration(random.Random(seed), negate=negate))
            assert cached.cache_hit
            assert cached.microprogram == plain.microprogram
            assert cached.simulation.outputs == plain.simulation.outputs
        assert _cache_events(reg) == (5, 1, 0, 0)


class TestLRUBound:
    def test_eviction_and_counters(self):
        cache = FlowArtifactCache(max_entries=2)
        assert [cache.put(_stub_entry(f"k{i}")) for i in range(3)] == [0, 0, 1]
        assert len(cache) == 2
        assert cache.get("k0") is None  # evicted
        # Through run_flow the same events land in the registry: three
        # optimizer levels are three shapes, one more than fit.
        cache = FlowArtifactCache(max_entries=2)
        reg = MetricsRegistry()
        for level in ("none", "cse", "full", "none"):
            run_flow(trace_loop_iteration(), cache=cache, optimize=level,
                     metrics=reg)
        assert _cache_events(reg) == (0, 4, 2, 0)

    def test_lru_order_respects_recency(self):
        cache = FlowArtifactCache(max_entries=2)
        cache.put(_stub_entry("a"))
        cache.put(_stub_entry("b"))
        assert cache.get("a") is not None  # refresh a
        cache.put(_stub_entry("c"))  # must evict b, not a
        assert cache.get("a") is not None
        assert cache.get("b") is None


class TestFallbackSelfHealing:
    def test_poisoned_entry_recovers(self, engine):
        """A corrupted cached template is detected, recomputed, replaced."""
        key = engine._shape_keys["scalarmult"]
        entry = engine.cache._entries[key]
        bad_template = dataclasses.replace(
            entry.template, n_trace=entry.template.n_trace + 1
        )
        engine.cache.put(dataclasses.replace(entry, template=bad_template))

        k = 0xFA11BACC
        flow = engine.scalarmult_flow(k, AffinePoint.generator())
        assert flow.fallback and not flow.cache_hit
        got = engine._point_from_outputs(flow)
        ref = scalar_mul_fourq(k, AffinePoint.generator())
        assert (got.x, got.y) == (ref.x, ref.y)

        # Self-healed: the very next request takes the fast path again.
        flow2 = engine.scalarmult_flow(k + 1, AffinePoint.generator())
        assert flow2.cache_hit and not flow2.fallback

    def test_stale_engine_key_is_harmless(self, engine):
        """A wrong memoized shape key re-resolves without breaking results."""
        engine._shape_keys["scalarmult"] = "0" * 64
        k = 0x57A1E
        got = engine.scalarmult(k)
        ref = scalar_mul_fourq(k, AffinePoint.generator())
        assert (got.x, got.y) == (ref.x, ref.y)
        # The memo healed to the true key.
        assert engine._shape_keys["scalarmult"] != "0" * 64
        assert engine.scalarmult_flow(k + 1).cache_hit


class TestBatchSemantics:
    def test_dedup_computes_once(self, engine):
        k1, k2 = 0xD00D, 0xBEEF
        result, delta = counted(
            engine.metrics,
            lambda: engine.batch_scalarmult([k1, k1, k2, k1 + SUBGROUP_ORDER_N]),
        )
        assert delta("repro_serve_items_total") == 4
        # Three of the four jobs share one canonical (k mod N, P) key.
        assert delta("repro_serve_items_total", outcome="ok") == 2
        assert delta("repro_serve_items_total", outcome="dedup") == 2
        assert (result[0].x, result[0].y) == (result[1].x, result[1].y)
        assert (result[0].x, result[0].y) == (result[3].x, result[3].y)
        ref = scalar_mul_fourq(k2, AffinePoint.generator())
        assert (result[2].x, result[2].y) == (ref.x, ref.y)

    def test_dedup_off_executes_all(self, engine):
        _, delta = counted(
            engine.metrics, lambda: engine.batch_scalarmult([5, 5], dedup=False)
        )
        assert delta("repro_serve_items_total", outcome="ok") == 2

    def test_batch_dh_matches_reference(self, engine):
        from repro.dsa import fourq_dh

        rng = random.Random(0xD4)
        me = fourq_dh.generate_keypair(rng)
        peers = [fourq_dh.generate_keypair(rng) for _ in range(2)]
        batch = engine.batch_dh(me.private, [p.public_bytes for p in peers])
        for peer, got in zip(peers, batch):
            assert got == fourq_dh.shared_secret(me, peer.public_bytes)

    def test_batch_verify_rejects_corruption(self, engine):
        from dataclasses import replace

        from repro.dsa import fourq_schnorr

        rng = random.Random(0x5160)
        key = fourq_schnorr.generate_keypair(rng)
        sig = fourq_schnorr.sign(key, b"serve", nonce=12345)
        bad = replace(sig, s=(sig.s + 1) % SUBGROUP_ORDER_N)
        verdicts = engine.batch_verify(
            [(key.public, b"serve", sig), (key.public, b"serve", bad)]
        )
        assert list(verdicts) == [True, False]

    def test_workers_reports_chunks_actually_used(self, engine):
        """3 jobs never occupy more than 3 workers, whatever was asked."""
        result = engine.batch_scalarmult([31, 32, 33], workers=8, dedup=False)
        assert engine.supervisor.size == 3
        ref = scalar_mul_fourq(31, AffinePoint.generator())
        assert (result[0].x, result[0].y) == (ref.x, ref.y)

    def test_stats_accounting(self, engine):
        _, delta = counted(
            engine.metrics, lambda: engine.batch_scalarmult([11, 12, 13], dedup=False)
        )
        assert delta("repro_serve_items_total", outcome="ok") == 3
        # The engine is warm: every item hit the artifact cache.
        assert delta("repro_cache_events_total", event="hit") == 3
        assert delta("repro_cache_events_total", event="miss") == 0
        assert delta("repro_flow_requests_total", path="fallback") == 0
        assert delta("repro_datapath_cycles_total") == 3 * 2069
        assert delta("repro_datapath_runs_total") == 3
        assert "cache hit rate" in render_report(engine.metrics.snapshot())


class TestPercentile:
    """Nearest-rank (ceil) percentile: never under-reports."""

    def test_p50_of_two_samples_is_upper(self):
        # round() banker's rounding used to return the lower sample.
        assert percentile([1.0, 2.0], 50) == 2.0

    def test_extremes_and_midpoints(self):
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 100) == 5.0
        assert percentile(samples, 50) == 3.0
        assert percentile(samples, 99) == 5.0

    def test_degenerate_inputs(self):
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 99) == 7.0


class TestChunk:
    """The fan-out split is balanced and never emits an empty chunk."""

    def test_five_jobs_four_workers_uses_four_chunks(self):
        chunks = _chunk(list(range(5)), 4)
        assert [len(c) for c in chunks] == [2, 1, 1, 1]

    def test_fewer_jobs_than_workers(self):
        chunks = _chunk(list(range(3)), 8)
        assert [len(c) for c in chunks] == [1, 1, 1]

    def test_balanced_and_order_preserving(self):
        for n_items in range(1, 17):
            for n in range(1, 9):
                chunks = _chunk(list(range(n_items)), n)
                assert [x for c in chunks for x in c] == list(range(n_items))
                sizes = [len(c) for c in chunks]
                assert min(sizes) >= 1
                assert max(sizes) - min(sizes) <= 1
                assert len(chunks) == min(n, n_items)

    def test_empty(self):
        assert _chunk([], 4) == []


class TestBatchResultEnvelope:
    """errors / ok_count / outcomes / raise_any / unwrap helpers."""

    def _mixed(self):
        failed = Failed(kind="value", message="boom", index=1)
        return BatchResult(results=["a", failed, "c"])

    def test_error_accessors(self):
        result = self._mixed()
        assert result.ok_count == 2
        assert [f.index for f in result.errors] == [1]
        outcomes = result.outcomes
        assert outcomes[0].ok and outcomes[0].value == "a"
        assert not outcomes[1].ok and outcomes[1].kind == "value"
        assert outcomes[2].index == 2

    def test_raise_any_and_unwrap(self):
        result = self._mixed()
        with pytest.raises(ValueError, match="boom"):
            result.raise_any()
        with pytest.raises(ValueError, match="boom"):
            result.unwrap()
        clean = BatchResult(results=["a", "b"])
        clean.raise_any()  # no error: a no-op
        assert clean.unwrap() == ["a", "b"]


class TestHitRateHonesty:
    def test_fallback_demotes_hit_accounting(self):
        """A fast path that falls back must count as a miss, not a hit."""
        cache = FlowArtifactCache()
        reg = MetricsRegistry()
        miss = run_flow(trace_loop_iteration(random.Random(31)), cache=cache,
                        metrics=reg)
        assert _cache_events(reg) == (0, 1, 0, 0)

        entry = cache._entries[miss.cache_key]
        bad_template = dataclasses.replace(
            entry.template, n_trace=entry.template.n_trace + 1
        )
        cache.put(dataclasses.replace(entry, template=bad_template))

        flow = run_flow(trace_loop_iteration(random.Random(32)), cache=cache,
                        metrics=reg)
        assert flow.fallback and not flow.cache_hit
        # The found entry did not complete: a miss plus a fallback.
        assert _cache_events(reg) == (0, 2, 0, 1)

        # Self-healed entry: the next request is an honest hit again.
        healed = run_flow(trace_loop_iteration(random.Random(33)), cache=cache,
                          metrics=reg)
        assert healed.cache_hit
        assert _cache_events(reg) == (1, 2, 0, 1)


def kinds_markdown() -> str:
    """The job-kind table of ``docs/serving.md``, rendered from ``KINDS``."""
    from repro.serve.engine import KINDS

    rows = ["| kind | payload | input domain | dedup | wire |",
            "|---|---|---|---|---|"]
    for spec in KINDS.values():
        name = " / ".join(f"`{n}`" for n in (spec.name, *spec.aliases))
        rows.append(
            f"| {name} | {spec.payload} | {spec.domain} | "
            f"{'yes' if spec.key else 'no'} | {'yes' if spec.wire else 'no'} |"
        )
    return "\n".join(rows) + "\n"


def test_serving_doc_job_kind_table_matches_KINDS():
    """docs/serving.md carries the table-rendered job kinds verbatim;
    regenerate them with ``tests.test_serve.kinds_markdown()``."""
    from pathlib import Path

    doc = (Path(__file__).resolve().parents[1] / "docs" / "serving.md").read_text()
    begin = "<!-- job-kinds:begin -->\n"
    end = "<!-- job-kinds:end -->"
    assert doc.count(begin) == 1 and doc.count(end) == 1
    assert doc[doc.index(begin) + len(begin):doc.index(end)] == kinds_markdown()


def test_item_series_are_labelled_by_canonical_kind(engine):
    """An alias counts under its kind's name and an unknown kind under
    ``?``, so caller-chosen strings cannot grow the ``kind`` label set."""
    from repro.serve.engine import KINDS

    g = AffinePoint.generator()
    jobs = [("scalarmult", (3, g)), ("sm", (5, g))]
    jobs += [(f"junk-{i}", None) for i in range(50)]
    result, delta = counted(engine.metrics, lambda: engine.run_jobs(jobs, dedup=False))
    assert result.ok_count == 2
    assert delta("repro_serve_items_total", kind="sm", outcome="ok") == 2
    assert delta("repro_serve_items_total", kind="?", outcome="error") == 50
    snap = engine.metrics.snapshot()
    labels = {
        series["labels"]["kind"]
        for section in ("counters", "histograms")
        for series in snap[section]
        if series["name"] in ("repro_serve_items_total", "repro_serve_latency_seconds")
    }
    assert labels <= set(KINDS) | {"?"}
