"""The performance ledger: one seeded benchmark for the whole stack.

One workload, in the form BENCHMARK.json's ``command`` takes::

    python3 benchmarks/ledger/run.py --workload sm_hot --seed 11 --seconds 15 --trace 0

prints every end-to-end metric (``--trace 0``) or every per-layer
metric (``--trace 1``) with its unit, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  It exits 1 on
any wrong or failed operation and 2 when it cannot run at all.

Every workload, as a ledger document::

    python3 benchmarks/ledger/run.py --seed 11 --repeat 3 --traced --out OUT.json

runs the workload set ``--repeat`` times untraced (alternating the
order each repeat), then once traced with ``--traced``, and writes
every run plus the spread of each metric to ``OUT.json``.  ``--smoke``
shortens every window to one second.  Compare two ledgers with
``compare.py``.  See README.md for the metrics and workloads.

Each workload runs in fresh processes: a generator (inputs from the
seed, handed over as data), set-up probes, and the measuring process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import inputs as gen
import stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Fresh-process cold starts per run beyond the measuring process's own;
#: setup_s is the median of all of them.
SETUP_PROBES = 2
#: Seconds any one child process may take before the run is abandoned.
CHILD_TIMEOUT = {"gen": 60, "probe": 60, "measure": 150}
#: Ledger-only figures summarized beside the declared end-to-end metrics:
#: the p90 (too few samples per run to gate on) and the failure share
#: (zero in every run, so a relative bound cannot apply).
EXTRA_METRICS = ["latency_p90_ms", "error_rate"]


class LedgerError(RuntimeError):
    """The benchmark itself could not run (not a wrong answer)."""


def child(role: str, workload: str, *args: str, stdin: str = "") -> str:
    """Run one ``workloads.py`` role in a fresh process; its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(HERE / "workloads.py"), role, "--workload", workload, *args]
    try:
        proc = subprocess.run(
            cmd, input=stdin, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=CHILD_TIMEOUT[role],
        )
    except subprocess.TimeoutExpired as exc:
        raise LedgerError(f"{workload} {role} exceeded {exc.timeout} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise LedgerError(f"{workload} {role} exited {proc.returncode}:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise LedgerError(f"{workload} {role} printed nothing")
    return lines[-1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    """Generate, probe set-up, measure: one workload's result document."""
    flags = ["--seed", str(seed), "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    inputs = child("gen", workload, *flags)
    digest = gen.digest(json.loads(inputs))
    setup = []
    if not trace and not smoke:
        probe_in = inputs if workload == "net_open" else ""
        setup = [float(child("probe", workload, stdin=probe_in)) for _ in range(SETUP_PROBES)]
    out = json.loads(child("measure", workload, *flags, "--trace", str(int(trace)),
                           stdin=inputs))
    out["setup_samples"] = out["setup_samples"] + setup
    if not trace:
        out["metrics"]["setup_s"] = statistics.median(out["setup_samples"])
    out.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
               inputs_digest=digest)
    return out


def declared(spec: dict, trace: bool) -> list:
    return spec["per_layer"] if trace else spec["end_to_end"]


def report_lines(out: dict, spec: dict) -> list:
    """Human-readable lines: every declared metric with its unit."""
    trace = bool(out["trace"])
    lines = [
        f"== {out['workload']}  seed {out['seed']}  {out['seconds']:g} s  "
        f"{'traced' if trace else 'untraced'}  "
        f"{out['attempted'] - out['failed']}/{out['attempted']} ok  "
        f"error_rate {out['extra']['error_rate']:g}"
    ]
    for m in declared(spec, trace):
        value = out["metrics"].get(m["name"])
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {m['name']:<32} {shown:>12} {m['unit']}")
    extra = out["extra"]
    if not trace:
        p90 = extra["latency_p90_ms"]
        lines.append(
            f"  {'latency_p90_ms':<32} {'n/a' if p90 is None else f'{p90:.6g}':>12} ms"
            f"  (n={extra['latency_n']}, {extra['latency_beyond_p90']} beyond; ungated)"
        )
        lines.append(
            f"  latency_p50_ms over n={extra['latency_p50_n']}; setup samples "
            f"{', '.join(f'{s:.3f}' for s in out['setup_samples'])} s"
        )
    else:
        lines.append(f"  span-sum gap (max over requests) {extra['span_sum_gap_max']:.2%}; "
                     f"absent layers: {', '.join(extra['absent_layers']) or 'none'}")
    return lines


def result_line(out: dict, spec: dict) -> dict:
    """The final JSON line: exactly the declared metrics of this mode."""
    metrics = {}
    for m in declared(spec, bool(out["trace"])):
        value = out["metrics"].get(m["name"])
        if value is None:
            raise LedgerError(f"{out['workload']}: {m['name']} has no value")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }


def host_info() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "platform": platform.platform()}


def summarize(runs: list, spec: dict) -> dict:
    """Per workload x end-to-end metric: median, quartiles, min/max and
    (max - min) / median over the untraced runs."""
    out = {}
    for workload in WORKLOADS:
        done = [r for r in runs if r["workload"] == workload and not r["trace"]]
        if not done:
            continue
        rows = {}
        for name in [m["name"] for m in spec["end_to_end"]] + EXTRA_METRICS:
            values = [r["metrics"].get(name, r["extra"].get(name)) for r in done]
            values = [v for v in values if v is not None]
            if not values:
                continue
            q1, med, q3 = stats.quartiles(values)
            rows[name] = {
                "n": len(values), "median": med, "q1": q1, "q3": q3,
                "min": min(values), "max": max(values),
                "range_over_median": (max(values) - min(values)) / med if med else 0.0,
            }
        out[workload] = rows
    return out


def ledger(args, spec: dict) -> int:
    runs = []
    order = list(WORKLOADS)
    passes = [(r, False) for r in range(args.repeat)] + ([(0, True)] if args.traced else [])
    for repeat, trace in passes:
        for workload in (order if repeat % 2 == 0 else order[::-1]):
            out = run_workload(workload, args.seed, args.seconds, trace, args.smoke)
            out["repeat"] = repeat
            runs.append(out)
            print("\n".join(report_lines(out, spec)), flush=True)
    doc = {
        "schema": "repro.ledger/v1",
        "host": host_info(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "runs": runs,
        "summary": summarize(runs, spec),
    }
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    failed = [r["workload"] for r in runs if not r["correct"]]
    if failed:
        print(f"WRONG OR FAILED OPERATIONS in: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="run one workload; its result is the last line, as JSON")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed window per run (default: run_seconds, 1 with --smoke)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="one-second windows, no probes")
    ap.add_argument("--repeat", type=int, default=1, help="untraced passes (ledger mode)")
    ap.add_argument("--traced", action="store_true", help="add one traced pass (ledger mode)")
    ap.add_argument("--out", help="write the ledger document here (ledger mode)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("ledger: the program's sources (src/repro) are not in this checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    try:
        if args.workload is None:
            return ledger(args, spec)
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.smoke)
        line = result_line(out, spec)
    except LedgerError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report_lines(out, spec)))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
