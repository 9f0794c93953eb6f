"""E-serve — batch-engine throughput vs per-request design flows.

The serving layer's claim: once the flow artifacts (job-shop schedule,
register allocation, control-word template, FSM geometry) are cached
for the scalar-multiplication workload shape, streaming N scalars
through one reused simulator is >= 5x the throughput of running the
full design flow per request — the cost every request paid before the
serving layer existed.

Run modes:

* ``python benchmarks/bench_batch_engine.py`` — the acceptance
  comparison: 64 independent ``run_flow(trace_scalar_mult(k))`` calls
  (cold, no reuse — including the one-time curve-artifact derivation a
  fresh process pays) vs. a warm-cache batch of 64 through
  :class:`repro.serve.BatchEngine`.  Exits non-zero below 5x.
* ``python benchmarks/bench_batch_engine.py --smoke`` — the same
  comparison at toy sizes (CI-friendly, ~15 s); asserts correctness
  and that batching wins at all, not the full 5x (which needs the
  one-time costs amortized over a real batch).
* ``python benchmarks/bench_batch_engine.py --pool-compare`` — the
  resident-pool acceptance: warm parallel batches through the
  supervised resident pool vs. a pool torn down and rebuilt per batch
  call (the pre-resilience behaviour).  Reports the throughput delta
  and exits non-zero if the resident pool loses more than 10%.
* ``pytest benchmarks/bench_batch_engine.py`` — pytest-benchmark
  harness over the warm path, plus the correctness cross-check.
"""

from __future__ import annotations

import argparse
import random
import sys
import time


def run_comparison(n: int = 64, baseline_n: int = 64, workers: int = 0, seed: int = 0x5EED):
    """Time ``baseline_n`` independent flows vs a warm batch of ``n``.

    Returns a dict with per-op timings, the engine's private metrics
    registry, and the ops/s speedup.  Results are cross-checked
    bit-for-bit against the pure math layer.
    """
    from repro.curve.point import AffinePoint
    from repro.curve.scalarmult import scalar_mul_fourq
    from repro.flow import run_flow
    from repro.obs import MetricsRegistry
    from repro.serve import BatchEngine
    from repro.trace import trace_scalar_mult

    rng = random.Random(seed)
    scalars = [rng.randrange(2**256) for _ in range(n)]
    base_scalars = scalars[:baseline_n] + [
        rng.randrange(2**256) for _ in range(baseline_n - n if baseline_n > n else 0)
    ]

    # Baseline: the pre-serving-layer cost.  Every request traces,
    # builds the scheduling problem, solves it, allocates registers,
    # assembles, and simulates from scratch.
    t0 = time.perf_counter()
    for k in base_scalars:
        run_flow(trace_scalar_mult(k=k))
    baseline_s = time.perf_counter() - t0
    baseline_per_op = baseline_s / len(base_scalars)

    # Engine: warm once (one full flow populates the artifact cache),
    # then stream the batch through the cached fast path.
    registry = MetricsRegistry()
    engine = BatchEngine(metrics=registry)
    engine.warm()
    t0 = time.perf_counter()
    result = engine.batch_scalarmult(scalars, workers=workers)
    batch_per_op = (time.perf_counter() - t0) / n

    point = AffinePoint.generator()
    for k, p in zip(scalars, result.results):
        ref = scalar_mul_fourq(k, point)
        if (p.x, p.y) != (ref.x, ref.y):
            raise AssertionError(f"batch result diverged from math layer for k={k:#x}")

    return {
        "n": n,
        "baseline_n": len(base_scalars),
        "baseline_per_op_ms": baseline_per_op * 1e3,
        "baseline_ops_per_s": 1.0 / baseline_per_op,
        "batch_per_op_ms": batch_per_op * 1e3,
        "batch_ops_per_s": 1.0 / batch_per_op,
        "registry": registry,
        "speedup": baseline_per_op / batch_per_op,
    }


def run_pool_comparison(n: int = 32, workers: int = 2, rounds: int = 3,
                        seed: int = 0x5EED):
    """Warm parallel batches: resident supervised pool vs per-call pool.

    Both engines pay one untimed warm-up batch (pool build + worker
    flow compilation); the timed rounds then show what the resident
    pool saves — a ``resident_pool=False`` engine tears its pool down
    after every batch and pays fork + per-worker artifact compilation
    again on the next one.  Returns ops/s per mode and the ratio.
    """
    from repro.serve import BatchEngine

    rng = random.Random(seed)
    scalars = [rng.randrange(2**256) for _ in range(n)]
    out = {}
    for label, resident in (("resident", True), ("per_call", False)):
        engine = BatchEngine(resident_pool=resident)
        engine.warm()
        engine.batch_scalarmult(scalars, workers=workers)  # untimed warm-up
        t0 = time.perf_counter()
        for _ in range(rounds):
            result = engine.batch_scalarmult(scalars, workers=workers)
            assert result.ok_count == n
        elapsed = time.perf_counter() - t0
        engine.close()
        out[label] = (rounds * n) / elapsed
    out["delta"] = out["resident"] / out["per_call"]
    return out


def main(argv=None) -> int:
    from repro.obs import render_report

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes, no 5x threshold (CI sanity run)")
    parser.add_argument("--n", type=int, default=None,
                        help="batch size (default 64; smoke: 6)")
    parser.add_argument("--baseline", type=int, default=None,
                        help="independent flows to time (default = --n; smoke: 2)")
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for the batch (0 = serial)")
    parser.add_argument("--pool-compare", action="store_true",
                        help="compare the resident supervised pool against "
                             "a pool rebuilt per batch call")
    args = parser.parse_args(argv)

    if args.pool_compare:
        n = args.n if args.n is not None else (8 if args.smoke else 32)
        workers = args.workers or 2
        rounds = 2 if args.smoke else 3
        print(f"pool-compare: {rounds} timed batches of {n} across "
              f"{workers} workers, resident vs per-call pool...")
        r = run_pool_comparison(n=n, workers=workers, rounds=rounds)
        print()
        print(f"resident pool : {r['resident']:6.2f} ops/s")
        print(f"per-call pool : {r['per_call']:6.2f} ops/s")
        print(f"delta         : {r['delta']:.2f}x "
              f"(resident / per-call; >= 1.0 means the resident pool wins)")
        if r["delta"] < 0.9:
            print("FAIL: resident pool regressed warm-batch throughput "
                  "by more than 10%", file=sys.stderr)
            return 1
        print("PASS: resident pool at or above per-call parity")
        return 0

    n = args.n if args.n is not None else (6 if args.smoke else 64)
    baseline_n = args.baseline if args.baseline is not None else (2 if args.smoke else n)

    print(f"baseline: {baseline_n} independent run_flow calls (no reuse)...")
    print(f"engine  : warm-cache batch of {n}"
          + (f" across {args.workers} workers" if args.workers else " (serial)"))
    r = run_comparison(n=n, baseline_n=baseline_n, workers=args.workers)
    print()
    print(f"baseline : {r['baseline_ops_per_s']:6.2f} ops/s "
          f"({r['baseline_per_op_ms']:.1f} ms/op)")
    print(f"engine   : {r['batch_ops_per_s']:6.2f} ops/s "
          f"({r['batch_per_op_ms']:.1f} ms/op)")
    print()
    print(render_report(r["registry"].snapshot()))
    print()
    print(f"speedup (warm batch vs per-request flow): {r['speedup']:.1f}x")

    threshold = 1.0 if args.smoke else 5.0
    if r["speedup"] < threshold:
        print(f"FAIL: speedup below {threshold:.0f}x", file=sys.stderr)
        return 1
    print(f"PASS: >= {threshold:.0f}x")
    return 0


# -- pytest-benchmark harness -----------------------------------------

def test_warm_batch_throughput(benchmark):
    """Warm-path per-op latency of the batch engine (8-scalar batch)."""
    from repro.obs import MetricsRegistry, counter_value
    from repro.serve import BatchEngine

    rng = random.Random(0xBE)
    registry = MetricsRegistry()
    engine = BatchEngine(metrics=registry)
    engine.warm()
    scalars = [rng.randrange(2**256) for _ in range(8)]
    before = registry.snapshot()

    result = benchmark.pedantic(
        engine.batch_scalarmult, args=(scalars,), rounds=3, iterations=1
    )
    after = registry.snapshot()

    def delta(name, **labels):
        return counter_value(after, name, **labels) - counter_value(
            before, name, **labels
        )

    latency = registry.histogram("repro_serve_latency_seconds", kind="sm")
    cycles_per_op = delta("repro_datapath_cycles_total") / delta(
        "repro_datapath_runs_total"
    )
    print(f"\n  warm batch: p50 {latency.percentile(50) * 1e3:.1f} ms, "
          f"p99 {latency.percentile(99) * 1e3:.1f} ms, "
          f"{cycles_per_op:.0f} cycles/op")
    benchmark.extra_info["cycles_per_op"] = cycles_per_op
    assert delta("repro_cache_events_total", event="hit") == 3 * len(scalars)
    assert delta("repro_cache_events_total", event="miss") == 0
    assert delta("repro_flow_requests_total", path="fallback") == 0
    # A clean batch reports a clean isolation picture: no errors, no
    # chunk recoveries.
    assert delta("repro_serve_errors_total") == 0
    assert delta("repro_serve_chunk_requeues_total") == 0
    assert delta("repro_serve_chunk_retries_total") == 0
    assert result.ok_count == len(scalars)


def test_batch_beats_per_request():
    """The smoke comparison: batching must beat per-request flows."""
    r = run_comparison(n=6, baseline_n=2, seed=0xCAFE)
    print(f"\n  speedup at toy sizes: {r['speedup']:.1f}x")
    assert r["speedup"] > 1.0


if __name__ == "__main__":
    raise SystemExit(main())
