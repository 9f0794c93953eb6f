"""E-frontend — streamed requests vs pre-formed warm batches.

The front door's claim: continuous batching (work-conserving dispatch:
a lane flushes what it holds, up to ``max_batch``, whenever the engine
is free) converts a stream of individual requests into engine batches
well enough that **streamed throughput at saturation stays within 2x
of the pre-formed warm-batch throughput** — the coalescer's overhead
(event loop, per-request futures, flush boundaries) must not give back
the serving layer's 7x win.  The benchmark also sweeps the arrival
rate and prints each point's flush wait: near zero while the door is
mostly idle, growing with the batches that form under load
(docs/serving.md, "Flush policy").

Run modes:

* ``python benchmarks/bench_frontend.py`` — the acceptance comparison:
  a pre-formed warm batch of 64 vs 64 requests streamed through
  :class:`repro.serve.frontend.Frontend` at saturation, plus the
  arrival-rate sweep.  Exits non-zero if streamed ops/s falls below
  half the warm-batch ops/s.
* ``python benchmarks/bench_frontend.py --smoke`` — the same at CI
  sizes (N=12, two sweep points), same 2x acceptance bound.
* ``pytest benchmarks/bench_frontend.py`` — a relaxed-threshold
  assertion suitable for loaded CI machines.
"""

from __future__ import annotations

import argparse
import asyncio
import random
import sys
import time


def measure_warm_batch(engine, scalars):
    """Pre-formed warm-batch ops/s — the number the frontend must chase."""
    t0 = time.perf_counter()
    result = engine.batch_scalarmult(scalars)
    wall = time.perf_counter() - t0
    assert result.ok_count == len(scalars)
    return len(scalars) / wall


def run_stream(engine, scalars, rate=0.0, max_batch=16, max_wait_ms=5.0):
    """Stream ``scalars`` through a Frontend; returns the serving figures.

    ``rate`` is the Poisson arrival rate in req/s (0 = saturation: all
    requests submitted immediately).  One source sends everything, so
    ``max_wait_ms`` (the rejoin bound) never holds a flush.  Returns ops/s measured over the
    full stream wall time plus figures read from the frontend's private
    metrics registry.
    """
    from repro.curve.point import AffinePoint
    from repro.obs import MetricsRegistry, counter_value
    from repro.serve import Frontend

    rng = random.Random(0xA221)
    generator = AffinePoint.generator()
    delays, t = [], 0.0
    for _ in scalars:
        t += rng.expovariate(rate) if rate > 0 else 0.0
        delays.append(t)

    registry = MetricsRegistry()

    async def driver():
        async with Frontend(engine, metrics=registry, max_batch=max_batch,
                            max_wait_ms=max_wait_ms, max_queue=4096) as fe:
            async def client(k, delay):
                await asyncio.sleep(delay)
                return await fe.submit("sm", (k, generator))

            t0 = time.perf_counter()
            results = await asyncio.gather(
                *[client(k, d) for k, d in zip(scalars, delays)]
            )
            wall = time.perf_counter() - t0
        return results, wall

    results, wall = asyncio.run(driver())
    assert len(results) == len(scalars)
    e2e = registry.histogram("repro_frontend_e2e_latency_seconds", kind="sm")
    return {
        "ops_per_s": len(scalars) / wall,
        "wall_s": wall,
        "p50_ms": e2e.percentile(50) * 1e3,
        "p99_ms": e2e.percentile(99) * 1e3,
        "mean_batch": registry.histogram(
            "repro_frontend_batch_size", kind="sm"
        ).mean,
        "wait_p50_ms": registry.histogram(
            "repro_frontend_flush_wait_seconds", kind="sm"
        ).percentile(50) * 1e3,
        "completed": int(counter_value(
            registry.snapshot(), "repro_frontend_resolved_total", outcome="ok"
        )),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI sizes (N=12, short sweep), same 2x bound")
    parser.add_argument("--n", type=int, default=None,
                        help="requests per run (default 64; smoke: 12)")
    parser.add_argument("--max-batch", type=int, default=16)
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (12 if args.smoke else 64)

    from repro.serve import BatchEngine

    rng = random.Random(0x5EED)
    scalars = [rng.randrange(2**256) for _ in range(n)]

    print("warming engine (one-time artifacts + first flow)...")
    engine = BatchEngine()
    engine.warm()

    warm_ops = measure_warm_batch(engine, scalars)
    print(f"pre-formed warm batch      : {warm_ops:6.2f} ops/s  (N={n})")

    # The acceptance point: saturation arrivals.
    sat = run_stream(engine, scalars, rate=0.0, max_batch=args.max_batch)
    ratio = sat["ops_per_s"] / warm_ops
    print(f"streamed @ saturation      : {sat['ops_per_s']:6.2f} ops/s "
          f"({ratio:.2f}x of warm batch; mean batch {sat['mean_batch']:.1f}, "
          f"p50 {sat['p50_ms']:.1f} ms, p99 {sat['p99_ms']:.1f} ms)")

    # The load sweep: arrival rate as a multiple of warm-batch capacity.
    loads = [0.5, 2.0] if args.smoke else [0.25, 0.5, 1.0, 2.0]
    print("\narrival-rate sweep (streamed):")
    print(f"{'arrivals':>12} {'ops/s':>8} {'wait p50':>9} {'p50 ms':>8} "
          f"{'p99 ms':>8} {'mean batch':>11}")
    for load in loads:
        rate = warm_ops * load
        r = run_stream(engine, scalars, rate=rate, max_batch=args.max_batch)
        print(f"{rate:10.1f}/s {r['ops_per_s']:8.2f} {r['wait_p50_ms']:7.2f}ms "
              f"{r['p50_ms']:8.1f} {r['p99_ms']:8.1f} {r['mean_batch']:11.1f}")

    print()
    if sat["ops_per_s"] < warm_ops / 2.0:
        print(f"FAIL: streamed saturation throughput below half the "
              f"warm-batch throughput ({ratio:.2f}x)", file=sys.stderr)
        return 1
    print(f"PASS: streamed-at-saturation within 2x of warm batch "
          f"({ratio:.2f}x)")
    return 0


# -- pytest harness ----------------------------------------------------

def test_streamed_saturation_near_warm_batch():
    """Streamed ops/s at saturation tracks the pre-formed warm batch.

    The CLI acceptance bound is 2x; under pytest (shared CI machines,
    toy N) we assert a relaxed 2.5x so scheduler noise cannot flake the
    suite while a real coalescer regression still fails.
    """
    from repro.serve import BatchEngine

    rng = random.Random(0xBEEF)
    scalars = [rng.randrange(2**256) for _ in range(10)]
    engine = BatchEngine()
    engine.warm()
    warm_ops = measure_warm_batch(engine, scalars)
    sat = run_stream(engine, scalars, rate=0.0, max_batch=8)
    print(f"\n  warm {warm_ops:.1f} ops/s vs streamed {sat['ops_per_s']:.1f} "
          f"ops/s ({sat['ops_per_s'] / warm_ops:.2f}x)")
    assert sat["ops_per_s"] >= warm_ops / 2.5
    assert sat["completed"] == len(scalars)


def test_no_linger_at_an_idle_door_and_batches_under_load():
    """Work-conserving dispatch, through the real engine.

    At a quarter of engine capacity most requests find the door idle
    and dispatch at once, even with a 200 ms rejoin bound: the median
    flush wait stays under half a request's service time.  At four
    times capacity, requests that arrive during a flush share the next
    one, so batches form.
    """
    from repro.serve import BatchEngine

    rng = random.Random(0xFACE)
    scalars = [rng.randrange(2**256) for _ in range(12)]
    engine = BatchEngine()
    engine.warm()
    warm_ops = measure_warm_batch(engine, scalars)
    idle = run_stream(engine, scalars[:8], rate=warm_ops / 4, max_batch=64,
                      max_wait_ms=200.0)
    loaded = run_stream(engine, scalars, rate=warm_ops * 4, max_batch=64,
                        max_wait_ms=200.0)
    service_ms = 1e3 / warm_ops
    print(f"\n  flush wait p50 {idle['wait_p50_ms']:.2f} ms at 1/4 load "
          f"(service {service_ms:.1f} ms); mean batch "
          f"{loaded['mean_batch']:.1f} at 4x load")
    assert idle["wait_p50_ms"] < service_ms / 2
    assert loaded["mean_batch"] > 1.0
    assert idle["completed"] == 8 and loaded["completed"] == len(scalars)


if __name__ == "__main__":
    raise SystemExit(main())
