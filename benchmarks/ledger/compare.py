"""Compare two ledger documents, workload by workload, metric by metric.

    python3 benchmarks/ledger/compare.py PARENT.json CHANGE.json

Prints one row per workload x end-to-end metric: each side's median and
quartiles over its untraced runs, the ratio change/parent (the parent
is the base), and a verdict under the metric's bound in BENCHMARK.json:

* ``unresolved`` -- either side's quartile spread (as a share of its
  median) exceeds the bound, unless every change run beats every
  parent run (then ``better`` or ``same`` by the rule below);
* ``worse`` / ``better`` -- the change's median is worse / better than
  the parent's by more than the bound;
* ``same`` -- otherwise.

``error_rate`` is compared absolutely: any increase is worse.  Exits 1
when any row is worse or unresolved.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parents[2]


def values(doc: dict, workload: str, metric: str) -> list:
    out = []
    for run in doc["runs"]:
        if run["workload"] != workload or run["trace"]:
            continue
        v = run["extra"]["error_rate"] if metric == "error_rate" else run["metrics"].get(metric)
        if v is not None:
            out.append(v)
    return out


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """better / same / worse / unresolved for one metric (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = stats.quartiles(parent)[1], stats.quartiles(change)[1]
    if bound is None:  # absolute comparison, for a metric whose parent is 0
        delta = sign * (c_med - p_med)
        return "worse" if delta > 0 else "better" if delta < 0 else "same"
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    if max(stats.spread(parent), stats.spread(change)) > bound:
        if not all(sign * (c - p) < 0 for c in change for p in parent):
            return "unresolved"
        # Every change run beats every parent run: no regression,
        # and a gain only if the medians also differ by the bound.
        return "better" if worse_by < -bound else "same"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(parent: dict, change: dict, spec: dict) -> list:
    metrics = spec["end_to_end"] + [
        {"name": "error_rate", "unit": "ratio", "better": "lower", "bound": None}
    ]
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for m in metrics:
            p = values(parent, workload, m["name"])
            c = values(change, workload, m["name"])
            if not p or not c:
                continue
            p_q, c_q = stats.quartiles(p), stats.quartiles(c)
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "parent": p_q, "change": c_q,
                "ratio": c_q[1] / p_q[1] if p_q[1] else None,
                "verdict": verdict(p, c, m["better"], m["bound"]),
            })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    rows = compare(parent, change, spec)

    def fmt(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    print(f"{'workload':<13} {'metric':<18} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'change/parent':>13}  verdict")
    for r in rows:
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3f}"
        print(f"{r['workload']:<13} {r['metric']:<18} {fmt(r['parent']):>32} "
              f"{fmt(r['change']):>32} {ratio:>13}  {r['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("worse", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
