"""MSM batch verification — amortized throughput vs per-item serving.

The serving claim: resolving a batch of Schnorr verifications with one
randomized multi-scalar multiplication (``batch_verify(mode="msm")``)
achieves **at least 3x the throughput of per-item verification calls**
on the warm engine, while a forged signature hidden in the batch still
resolves every honest item ``Ok(True)`` through the bisection fallback
(one forgery never costs 63 honest requests).

Also reported:

* a sweep of :func:`repro.curve.multiscalar.multi_scalar_mul` (the
  host's one MSM method, interleaved wNAF) against the Pippenger
  bucket reference at 3-128 points, re-checking that wNAF wins at
  every size;
* the simulated cycles/op figure for MSM, extrapolated from the traced
  bucket-window kernel (trace -> job-shop -> microcode -> simulate) —
  a number nothing in the source paper attempted.

Run modes:

* ``python benchmarks/bench_msm.py`` — the full acceptance run: 64
  signatures, per-item baseline vs MSM batch (gate: >= 3x), forged
  batch isolation (gate: every honest item ``Ok(True)``, forged item
  ``Ok(False)``), wNAF vs Pippenger sweep, cycles/op report.
* ``python benchmarks/bench_msm.py --smoke`` — CI sizes (16
  signatures, baseline extrapolated from 4 items, >= 2x gate — the
  amortization is weaker at small N).
* ``pytest benchmarks/bench_msm.py`` — relaxed-threshold assertions
  suitable for loaded CI machines.
"""

from __future__ import annotations

import argparse
import random
import sys
import time


def make_items(rng, n, signers=4):
    """n signed (public, message, signature) triples from a few keys."""
    from repro.dsa.fourq_schnorr import generate_keypair, sign

    kps = [generate_keypair(rng) for _ in range(signers)]
    items = []
    for i in range(n):
        kp = kps[i % signers]
        msg = b"bench-msm-%d" % i
        items.append((kp.public, msg, sign(kp, msg)))
    return items


def measure_per_item(engine, items):
    """The baseline: one engine.batch_verify call per item (warm)."""
    t0 = time.perf_counter()
    for item in items:
        result = engine.batch_verify([item])
        assert result.results[0] is True
    return (time.perf_counter() - t0) / len(items)


def measure_msm_batch(engine, items):
    """One MSM-mode batch_verify over the whole batch (warm)."""
    t0 = time.perf_counter()
    result = engine.batch_verify(items, mode="msm")
    wall = time.perf_counter() - t0
    assert all(v is True for v in result.results)
    return wall / len(items)


def forged_batch_outcomes(engine, items, forged_index):
    """Run an MSM batch with one tampered signature; return outcomes."""
    tampered = list(items)
    public, _, sig = items[forged_index]
    tampered[forged_index] = (public, b"forged-message", sig)
    return engine.batch_verify(tampered, mode="msm")


def method_sweep(sizes, repeats=1):
    """wNAF vs Pippenger wall time per point count (equal results)."""
    from repro.curve.multiscalar import (
        multi_scalar_mul,
        multi_scalar_mul_pippenger,
    )
    from repro.curve.point import random_subgroup_point

    rng = random.Random(0x3C0)
    rows = []
    for n in sizes:
        points = [random_subgroup_point(rng) for _ in range(n)]
        scalars = [rng.randrange(2**246) for _ in range(n)]
        t_wnaf = t_pip = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            a = multi_scalar_mul(scalars, points)
            t_wnaf = min(t_wnaf, time.perf_counter() - t0)
            t0 = time.perf_counter()
            b = multi_scalar_mul_pippenger(scalars, points)
            t_pip = min(t_pip, time.perf_counter() - t0)
            assert a == b, f"wNAF and Pippenger disagree at n={n}"
        rows.append((n, t_wnaf, t_pip))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI sizes (N=16, extrapolated baseline, 2x gate)")
    parser.add_argument("--n", type=int, default=None,
                        help="batch size (default 64; smoke: 16)")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics registry as JSON to PATH "
                             "(+ Prometheus text alongside)")
    args = parser.parse_args(argv)
    n = args.n if args.n is not None else (16 if args.smoke else 64)
    baseline_n = min(n, 4 if args.smoke else n)
    gate = 2.0 if args.smoke else 3.0

    from repro.serve import BatchEngine

    rng = random.Random(0x5EED)
    print(f"signing {n} messages and warming the engine...")
    items = make_items(rng, n)
    engine = BatchEngine()
    engine.warm()

    print(f"\nper-item baseline: {baseline_n} batch_verify([item]) calls...")
    per_item_s = measure_per_item(engine, items[:baseline_n])
    print(f"  {per_item_s * 1e3:7.1f} ms/item  "
          f"({1.0 / per_item_s:6.2f} ops/s"
          + (", extrapolated to the full batch" if baseline_n < n else "")
          + ")")

    print(f"\nMSM batch: one batch_verify(mode='msm') over {n} items...")
    msm_s = measure_msm_batch(engine, items)
    speedup = per_item_s / msm_s
    print(f"  {msm_s * 1e3:7.1f} ms/item  ({1.0 / msm_s:6.2f} ops/s)")
    print(f"  speedup vs per-item        : {speedup:.2f}x  (gate: {gate:g}x)")
    cycles_per_op = engine.metrics.value("repro_msm_simulated_cycles_per_op")
    print(f"  simulated cycles/op (model): {cycles_per_op:,.0f}"
          "  — window-kernel extrapolation")

    kernel = engine.msm_kernel_flow()
    print(f"  traced window kernel       : {kernel.cycles} cycles "
          f"({'cache hit' if not kernel.fallback else 'fallback'})")

    print(f"\nforged-signature batch: 1 tampered item among {n}...")
    forged_index = n // 3
    forged = forged_batch_outcomes(engine, items, forged_index)
    honest_ok = sum(
        1 for i, v in enumerate(forged.results)
        if i != forged_index and v is True
    )
    forged_rejected = forged.results[forged_index] is False
    fallback_ok = honest_ok == n - 1 and forged_rejected
    print(f"  honest items Ok(True)      : {honest_ok}/{n - 1}")
    print(f"  forged item Ok(False)      : {forged_rejected}")

    sweep_sizes = [3, 9, 17] if args.smoke else [3, 5, 9, 17, 33, 65, 128]
    print("\nmulti_scalar_mul (wNAF) vs Pippenger reference, best of 3:")
    print(f"{'n':>6} {'wnaf':>12} {'pippenger':>12}  ratio")
    for size, t_w, t_p in method_sweep(sweep_sizes, repeats=3):
        print(f"{size:>6} {t_w * 1e3:>10.1f}ms {t_p * 1e3:>10.1f}ms  "
              f"{t_p / t_w:5.2f}x")

    if args.metrics_out:
        from repro.obs import ExportSchemaError, get_registry, write_exports

        try:
            json_path, prom_path = write_exports(
                get_registry().snapshot(), args.metrics_out
            )
        except ExportSchemaError as exc:
            print(f"FAIL: metrics export is schema-invalid: {exc}",
                  file=sys.stderr)
            return 1
        print(f"\nmetrics written: {json_path} (+ {prom_path})")

    print()
    failed = False
    if speedup < gate:
        print(f"FAIL: MSM batch speedup {speedup:.2f}x below the "
              f"{gate:g}x gate", file=sys.stderr)
        failed = True
    if not fallback_ok:
        print("FAIL: forged batch did not isolate cleanly "
              f"(honest Ok: {honest_ok}/{n - 1}, forged rejected: "
              f"{forged_rejected})", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"PASS: {speedup:.2f}x >= {gate:g}x and one forgery cost zero "
          "honest slots")
    return 0


# -- pytest harness ----------------------------------------------------

def test_msm_batch_beats_per_item():
    """MSM-mode batch verification amortizes vs per-item calls.

    The CLI acceptance gate is 3x at N=64; under pytest (toy N=12 on
    shared CI machines) we assert a relaxed 1.5x so scheduler noise
    cannot flake the suite while a real amortization regression still
    fails.
    """
    from repro.serve import BatchEngine

    rng = random.Random(0xBA7C)
    items = make_items(rng, 12)
    engine = BatchEngine()
    engine.warm()
    per_item_s = measure_per_item(engine, items[:3])
    msm_s = measure_msm_batch(engine, items)
    print(f"\n  per-item {per_item_s * 1e3:.0f} ms vs msm "
          f"{msm_s * 1e3:.0f} ms/item ({per_item_s / msm_s:.2f}x)")
    assert per_item_s / msm_s >= 1.5


def test_forged_batch_resolves_honest_items():
    """One forgery in the batch never fails the honest majority."""
    from repro.serve import BatchEngine

    rng = random.Random(0xF02)
    items = make_items(rng, 8)
    engine = BatchEngine()
    engine.warm()
    result = forged_batch_outcomes(engine, items, forged_index=5)
    assert result.results[5] is False
    assert all(v is True for i, v in enumerate(result.results) if i != 5)


if __name__ == "__main__":
    raise SystemExit(main())
