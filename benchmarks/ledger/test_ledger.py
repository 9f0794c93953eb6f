"""Self-tests of the ledger harness: ``pytest benchmarks/ledger``."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def _span(sid, name, start, end, parent=None, rid=None):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "rid": rid}


def _env(*front):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([*map(str, front), str(ROOT / "src")])
    return env


def test_self_time_nested_and_overlapping_children():
    tree = [
        _span("r", "request", 0, 100),
        _span("t", "trace", 10, 30, parent="r"),
        _span("f", "flow", 20, 50, parent="r"),       # overlaps "t"
        _span("s", "rtl.simulate", 25, 45, parent="f"),
        _span("b", "isa.rebind", 90, 130, parent="r"),  # runs past its parent
    ]
    children = spans.build_children(tree)
    selfs = spans.self_times(tree, children)
    # [10, 50] and [90, 100] are covered: the overlap counts once and
    # the part of "b" outside its parent not at all.
    assert selfs["r"] == 100 - 40 - 10
    assert selfs["f"] == 30 - 20
    assert selfs["t"] == 20 and selfs["s"] == 20 and selfs["b"] == 40
    assert spans.covered(0, 10, [(2, 4), (3, 6), (8, 20)]) == 6


def test_spans_link_across_threads_and_processes_by_request_id():
    # client -> server frontend -> executor-thread engine flush of two
    # requests; the engine span has no thread parent, only request ids.
    tree = [
        _span("q1", "request", 0, 100, rid=["a"]),
        _span("n1", "serve.net", 5, 100, rid=["a"]),
        _span("f1", "serve.frontend", 10, 95, rid=["a"]),
        _span("q2", "request", 1, 100, rid=["b"]),
        _span("n2", "serve.net", 6, 99, rid=["b"]),
        _span("f2", "serve.frontend", 12, 96, rid=["b"]),
        _span("e", "serve.engine", 20, 90, rid=["a", "b"]),
        _span("t", "trace", 30, 60, parent="e"),
    ]
    children = spans.build_children(tree)
    assert set(children["f1"]) == {"e"} and set(children["f2"]) == {"e"}
    assert children["n1"] == ["f1"] and children["q1"] == ["n1"]
    selfs = spans.self_times(tree, children)
    for latency, total in spans.request_trees(tree, children, selfs):
        assert total == latency


def test_percentile_is_omitted_without_ten_samples_beyond():
    assert stats.tail_percentile(list(range(91)), 90) is None
    assert stats.tail_percentile(list(range(92)), 90) == pytest.approx(81.9)
    assert stats.percentile([1, 2, 3, 4], 50) == 2.5
    assert stats.quartiles([3.0, 1.0, 2.0]) == (1.0, 2.0, 3.0)


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs(workload):
    first = inputs.digest(inputs.generate(workload, 11, 1.0, smoke=True))
    again = inputs.digest(inputs.generate(workload, 11, 1.0, smoke=True))
    other = inputs.digest(inputs.generate(workload, 12, 1.0, smoke=True))
    assert first == again
    assert first != other


def test_missing_wrapped_function_is_an_absent_layer(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("ghost", "repro.flow", "no_such_stage", None),
        ("ghost", "repro.no_such_module", "f", None),
    ))
    wrappers = spans.Wrappers(spans.Recorder())
    assert "ghost:repro.flow.no_such_stage" in wrappers.absent
    assert "ghost:repro.no_such_module.f" in wrappers.absent
    wrappers.install()
    wrappers.uninstall()


def test_compare_verdicts():
    assert compare.verdict([10, 10.2, 10.1], [10.1, 10.0, 10.2], "lower", 0.1) == "same"
    assert compare.verdict([10, 10.2, 10.1], [12, 12.1, 12.2], "lower", 0.1) == "worse"
    assert compare.verdict([10, 10.2, 10.1], [12, 12.1, 12.2], "higher", 0.1) == "better"
    assert compare.verdict([10, 14, 10.1], [10.3, 10.0, 10.2], "lower", 0.1) == "unresolved"
    # Noisy but separated: no regression; a gain only beyond the bound.
    assert compare.verdict([10, 13, 10.5], [9, 9.5, 9.9], "lower", 0.1) == "same"
    assert compare.verdict([10, 13, 10.5], [8, 8.5, 9], "lower", 0.1) == "better"
    assert compare.verdict([2069.0] * 3, [2069.0] * 3, "lower", 0) == "same"
    assert compare.verdict([2069.0] * 3, [2070.0] * 3, "lower", 0) == "worse"
    assert compare.verdict([0.0] * 3, [0.01] * 3, "lower", None) == "worse"


SABOTAGE = '''
import repro.serve.engine as engine

_batch_scalarmult = engine.BatchEngine.batch_scalarmult


def batch_scalarmult(self, *args, **kwargs):
    out = _batch_scalarmult(self, *args, **kwargs)
    out.results[0] = -out.results[0]
    return out


engine.BatchEngine.batch_scalarmult = batch_scalarmult
'''


def test_injected_wrong_result_exits_nonzero(tmp_path):
    # sitecustomize is imported by every interpreter on the path, so the
    # sabotage reaches the measuring process that run.py starts.
    (tmp_path / "sitecustomize.py").write_text(SABOTAGE)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sm_hot", "--seed", "3",
         "--smoke"],
        capture_output=True, text=True, cwd=ROOT, env=_env(tmp_path), timeout=120,
    )
    assert proc.returncode == 1, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= 1


def test_smoke_runs_every_workload_within_a_minute(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "5", "--out", str(out)],
        capture_output=True, text=True, cwd=ROOT, env=_env(), timeout=180,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60
    doc = json.loads(out.read_text())
    assert sorted(r["workload"] for r in doc["runs"]) == sorted(inputs.GENERATORS)
    assert all(r["correct"] and r["failed"] == 0 for r in doc["runs"])
    cycles = {r["workload"]: r["metrics"]["sim_cycles_per_op"] for r in doc["runs"]}
    assert cycles["sm_hot"] == 2069
