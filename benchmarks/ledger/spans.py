"""Span recording and self-time arithmetic for the ledger's traced runs.

The program is never edited for tracing.  A traced run wraps the public
functions of each layer (the ``TARGETS`` table) with span recorders and
removes the wrappers again afterwards.  A target that no longer exists
is reported as an absent layer, never as an error, so a later refactor
that renames a function shows up as a missing row rather than a crash.

A span is ``{id, name, start, end, parent, rid}``: ``parent`` is the
innermost span open on the same thread, ``rid`` the request ids the
span serves.  Spans that start on a thread with nothing open (the
frontend's executor thread, the server process, coroutines) are linked
to the span one layer further out by request id — a request's unique
scalar, peer key or message — see :func:`build_children`.  Timestamps
are ``time.perf_counter_ns`` (CLOCK_MONOTONIC on Linux), so spans from
the load generator and the server process share one clock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


def job_rid(kind: str, payload) -> Optional[str]:
    """The request id of one job: its scalar, peer key or message."""
    try:
        if kind == "sm":
            return format(payload[0], "x")
        return bytes(payload[1]).hex()  # dh: (private, peer); verify: (Q, message, sig)
    except (TypeError, ValueError, IndexError):
        return None


def _rid_scalars(args):
    return [format(k, "x") for k in args[1]]


def _rid_items(args):
    return [bytes(item[1]).hex() for item in args[1]]


def _rid_peers(args):
    return [bytes(p).hex() for p in args[2]]


def _rid_jobs(args):
    return [job_rid(kind, payload) for kind, payload in args[1]]


def _rid_submit(args):
    return [job_rid(args[1], args[2])]


#: (layer, module, attribute path, request-id extractor).  Names are
#: patched where the caller looks them up: ``repro.flow`` imported its
#: stages by name, so the stages are wrapped in ``repro.flow``'s
#: namespace, not only in their home modules.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("serve.net", "repro.serve.net.client", "NetClient.submit_outcome", _rid_submit),
    ("serve.frontend", "repro.serve.frontend", "Frontend.submit_outcome", _rid_submit),
    ("serve.engine", "repro.serve.engine", "BatchEngine.batch_scalarmult", _rid_scalars),
    ("serve.engine", "repro.serve.engine", "BatchEngine.batch_verify", _rid_items),
    ("serve.engine", "repro.serve.engine", "BatchEngine.batch_dh", _rid_peers),
    ("serve.engine", "repro.serve.engine", "BatchEngine.run_jobs", _rid_jobs),
    ("serve.cache", "repro.serve.cache", "FlowArtifactCache.get", None),
    ("curve.msm", "repro.serve.engine", "batch_verify_schnorr", None),
    ("curve.msm", "repro.serve.engine", "multi_scalar_mul", None),
    ("curve.subgroup", "repro.curve.multiscalar", "in_order_n_subgroup", None),
    ("trace", "repro.serve.engine", "trace_scalar_mult", None),
    ("trace", "repro.serve.engine", "trace_double_scalar_mult", None),
    ("trace", "repro.serve.engine", "trace_msm_window", None),
    ("trace", "repro.trace.program", "trace_scalar_mult", None),
    ("trace", "repro.trace.program", "trace_double_scalar_mult", None),
    ("trace", "repro.trace.program", "trace_msm_window", None),
    ("trace", "repro.trace.program", "trace_loop_iteration", None),
    ("flow", "repro.serve.engine", "run_flow", None),
    ("flow", "repro.flow", "run_flow", None),
    ("opt.optimize", "repro.flow", "optimize_trace", None),
    ("opt.memo_schedule", "repro.flow", "memoized_schedule", None),
    ("sched.problem", "repro.flow", "problem_from_trace", None),
    ("sched.solve", "repro.flow", "cp_schedule", None),
    ("sched.solve", "repro.flow", "list_schedule", None),
    ("sched.solve", "repro.opt.memo", "list_schedule", None),
    ("sched.solve", "repro.sched.cp_scheduler", "cp_schedule", None),
    ("isa.regalloc", "repro.flow", "allocate_registers", None),
    ("isa.assemble", "repro.flow", "assemble", None),
    ("isa.assemble", "repro.flow", "build_template", None),
    ("isa.assemble", "repro.flow", "generate_fsm", None),
    ("isa.rebind", "repro.isa.microcode", "ProgramTemplate.rebind", None),
    ("rtl.simulate", "repro.rtl.datapath", "DatapathSimulator.run", None),
)

#: Layers that link across a thread or process boundary by request id,
#: outermost first.  "request" is the harness's own per-request span.
LINK_RANK = {"request": 0, "serve.net": 1, "serve.frontend": 2, "serve.engine": 3}


class Recorder:
    """Keeps spans in memory; :meth:`dump` writes them out as JSONL."""

    def __init__(self):
        # Span ids stay unique when two processes' files are merged.
        self.tag = str(os.getpid())
        self.spans: List[dict] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, rid: Optional[Sequence[Optional[str]]] = None):
        """A span on this thread, nested under the innermost open one."""
        sid = f"{self.tag}.{next(self._ids)}"
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "rid": list(rid) if rid else None}
            )

    def add(self, name: str, start: int, end: int,
            rid: Optional[Sequence[Optional[str]]] = None) -> None:
        """A span recorded after the fact, with no thread parent
        (coroutines interleave on one thread, so a stack would lie)."""
        self.spans.append(
            {"id": f"{self.tag}.{next(self._ids)}", "name": name, "start": start,
             "end": end, "parent": None, "rid": list(rid) if rid else None}
        )

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path: str) -> List[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _resolve(module: str, path: str):
    """(owner, attribute, original) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = vars(owner).get(attr)
    if original is None or not callable(original):
        return None
    return owner, attr, original


def _wrap(rec: Recorder, layer: str, fn, rid_fn):
    def rids(args):
        if rid_fn is None:
            return None
        try:
            return rid_fn(args)
        except (TypeError, ValueError, IndexError, AttributeError):
            return None

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapped(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return await fn(*args, **kwargs)
            finally:
                rec.add(layer, start, perf_counter_ns(), rids(args))

        return async_wrapped

    if layer == "serve.cache":
        @functools.wraps(fn)
        def cache_wrapped(*args, **kwargs):
            with rec.span(layer):
                entry = fn(*args, **kwargs)
            rec.count("serve.cache.calls")
            rec.count("serve.cache.hits", int(entry is not None))
            return entry

        return cache_wrapped

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        with rec.span(layer, rids(args)):
            return fn(*args, **kwargs)

    return wrapped


class Wrappers:
    """Installs and removes the span wrappers of :data:`TARGETS`."""

    def __init__(self, rec: Recorder):
        self._patches = []
        self.absent: List[str] = []
        for layer, module, path, rid_fn in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{layer}:{module}.{path}")
                continue
            owner, attr, original = found
            self._patches.append(
                (owner, attr, original, _wrap(rec, layer, original, rid_fn))
            )

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


# -- analysis -----------------------------------------------------------


def covered(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, s), min(end, e)) for s, e in intervals if e > start and s < end
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def build_children(spans: Sequence[dict]) -> Dict[str, List[str]]:
    """Parent id -> child ids, thread parents plus request-id links.

    A span with no thread parent and a ``LINK_RANK`` layer is a child of
    each span sharing one of its request ids whose layer is further out
    and whose interval contains it (the innermost such span per id).
    """
    children: Dict[str, List[str]] = defaultdict(list)
    by_rid: Dict[str, List[dict]] = defaultdict(list)
    for span in spans:
        if span["name"] in LINK_RANK:
            for rid in span.get("rid") or ():
                if rid is not None:
                    by_rid[rid].append(span)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append(span["id"])
            continue
        rank = LINK_RANK.get(span["name"])
        if rank is None:
            continue
        parents = set()
        for rid in span.get("rid") or ():
            outer = [
                p for p in by_rid.get(rid, ())
                if LINK_RANK[p["name"]] < rank
                and p["start"] <= span["start"] and span["end"] <= p["end"]
            ]
            if outer:
                best = max(outer, key=lambda p: (LINK_RANK[p["name"]], p["start"]))
                parents.add(best["id"])
        for pid in parents:
            children[pid].append(span["id"])
    return children


def self_times(spans: Sequence[dict], children: Dict[str, List[str]]) -> Dict[str, int]:
    """Span id -> duration minus the part its children cover (ns)."""
    by_id = {s["id"]: s for s in spans}
    out = {}
    for span in spans:
        kids = [by_id[c] for c in children.get(span["id"], ()) if c in by_id]
        out[span["id"]] = (span["end"] - span["start"]) - covered(
            span["start"], span["end"], ((k["start"], k["end"]) for k in kids)
        )
    return out


def layer_self_ns(spans: Sequence[dict], selfs: Dict[str, int]) -> Dict[str, int]:
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        totals[span["name"]] += selfs[span["id"]]
    return dict(totals)


def request_trees(spans: Sequence[dict], children: Dict[str, List[str]],
                  selfs: Dict[str, int]) -> List[Tuple[int, int]]:
    """(latency, sum of self times over the request's span tree) per
    harness ``request`` span, in ns; the two agree when no child leaks
    outside its parent and no time is counted twice."""
    out = []
    for root in (s for s in spans if s["name"] == "request"):
        seen, todo, total = set(), [root["id"]], 0
        while todo:
            sid = todo.pop()
            if sid in seen:
                continue
            seen.add(sid)
            total += selfs.get(sid, 0)
            todo.extend(children.get(sid, ()))
        out.append((root["end"] - root["start"], total))
    return out
