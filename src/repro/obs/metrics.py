"""Process-wide metrics primitives: counters, gauges, bounded histograms.

The serving layer's numbers must stay trustworthy under load: a worker
fan-out must not ship unbounded sample lists across the process
boundary, two threads must not lose increments, and a poisoned batch
must not dilute per-op figures.  This module provides the primitives
the whole pipeline records into:

* :class:`Counter` — monotone sum (merge: add);
* :class:`Gauge` — last-or-max value (merge: per its mode);
* :class:`Histogram` — fixed bucket bounds plus a bounded
  :class:`Reservoir` for quantiles (merge: add buckets, fold samples);
* :class:`MetricsRegistry` — a thread-safe, picklable-snapshot store of
  named+labeled metric series, with :meth:`~MetricsRegistry.snapshot` /
  :meth:`~MetricsRegistry.merge_snapshot` so worker processes serialize
  their partial registries home.

Every data structure is bounded: a histogram carries at most
``len(bounds) + 1`` bucket counts and :data:`DEFAULT_RESERVOIR_CAP`
retained samples regardless of how many observations it absorbed, so
metrics cost O(1) memory per series however long the process serves.

The process-wide default registry is reached through
:func:`get_registry`; :func:`set_registry` swaps it (e.g. for a
:class:`NullRegistry` when measuring instrumentation overhead).
"""

from __future__ import annotations

import bisect
import math
import random
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Sequence, Tuple, Union

#: Identifier of the JSON export layout (see :mod:`repro.obs.export`).
SCHEMA = "repro.obs/v1"

#: Retained-sample bound for every reservoir.  Quantiles are estimated
#: over at most this many samples whatever the stream length; counts
#: and sums always reflect the full stream.
DEFAULT_RESERVOIR_CAP = 1024

#: Default histogram bucket upper bounds for durations, in seconds
#: (sub-millisecond rebinds through multi-second cold flows).  The
#: implicit final bucket is +Inf.
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank (ceiling) percentile (q in [0, 100]); 0.0 when empty.

    The rank is ``ceil(q/100 * (n-1))`` over the sorted samples, so the
    estimate never under-reports: p50 of two samples is the *upper*
    sample, p0 the minimum, p100 the maximum.  (``round()`` would
    banker's-round 0.5 down to the lower sample.)
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(q / 100.0 * (len(ordered) - 1))
    return ordered[max(0, min(len(ordered) - 1, rank))]


class Reservoir:
    """Fixed-size uniform sample of an unbounded stream (Algorithm R).

    Keeps at most ``cap`` samples; every observation of the stream had
    an equal retention probability.  ``count`` and ``total`` always
    reflect the full stream, so means stay exact while quantiles are
    estimated over the retained samples.  The RNG is seeded per
    instance, so a given stream retains a reproducible sample set.

    ``len`` and iteration cover the retained samples.
    """

    __slots__ = ("cap", "count", "total", "samples", "_rng")

    def __init__(self, cap: int = DEFAULT_RESERVOIR_CAP, seed: int = 0x0B5):
        if cap <= 0:
            raise ValueError("reservoir cap must be positive")
        self.cap = cap
        self.count = 0
        self.total = 0.0
        self.samples: List[float] = []
        self._rng = random.Random(seed)

    def append(self, value: float) -> None:
        """Observe one value."""
        self.count += 1
        self.total += value
        if len(self.samples) < self.cap:
            self.samples.append(value)
        else:
            j = self._rng.randrange(self.count)
            if j < self.cap:
                self.samples[j] = value

    def merge(self, other: "Reservoir") -> None:
        """Fold another reservoir in (worker partials coming home).

        Exact while the combined retained sets fit the cap; beyond it
        the retained set is a cap-bounded subsample drawn from both
        sides in proportion to their stream sizes (each side's retained
        samples already uniformly represent its own stream).
        """
        combined = self.samples + list(other.samples)
        if len(combined) <= self.cap:
            self.samples = combined
        else:
            ours, theirs = list(self.samples), list(other.samples)
            w_ours, w_theirs = float(max(1, self.count)), float(max(1, other.count))
            picked: List[float] = []
            rng = self._rng
            for _ in range(self.cap):
                take_ours = ours and (
                    not theirs or rng.random() * (w_ours + w_theirs) < w_ours
                )
                src = ours if take_ours else theirs
                picked.append(src.pop(rng.randrange(len(src))))
            self.samples = picked
        self.count += other.count
        self.total += other.total

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        return percentile(self.samples, q)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def __len__(self) -> int:
        """Number of *retained* samples (== count while under the cap)."""
        return len(self.samples)

    def __iter__(self) -> Iterator[float]:
        return iter(self.samples)


LabelDict = Dict[str, str]


class Counter:
    """A monotone counter series; merge semantics: sum."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: LabelDict, lock: threading.RLock):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = lock

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters are monotone; use a gauge to go down")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value; merge semantics follow ``mode``.

    ``mode="last"`` keeps the most recent set (per-process state like
    cache occupancy); ``mode="max"`` keeps the high-water mark (port
    pressure, peak batch size) — the meaningful cross-worker aggregate.
    """

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "mode", "_lock")

    def __init__(
        self, name: str, labels: LabelDict, lock: threading.RLock, mode: str = "last"
    ):
        if mode not in ("last", "max"):
            raise ValueError(f"unknown gauge mode {mode!r}")
        self.name = name
        self.labels = labels
        self.value = 0.0
        self.mode = mode
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            if self.mode == "max":
                if value > self.value:
                    self.value = value
            else:
                self.value = value


class Histogram:
    """Bounded distribution: fixed buckets + a sample reservoir.

    ``bounds`` are the bucket upper edges; a final implicit +Inf bucket
    catches the tail, so ``bucket_counts`` has ``len(bounds) + 1``
    slots (non-cumulative; the Prometheus renderer accumulates).  The
    total count and sum are exact; quantiles come from the reservoir's
    retained samples (at most :data:`DEFAULT_RESERVOIR_CAP`).
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "bucket_counts", "reservoir", "_lock")

    def __init__(
        self,
        name: str,
        labels: LabelDict,
        lock: threading.RLock,
        bounds: Sequence[float] = DEFAULT_TIME_BUCKETS,
        cap: int = DEFAULT_RESERVOIR_CAP,
    ):
        self.name = name
        self.labels = labels
        self.bounds: Tuple[float, ...] = tuple(bounds)
        if any(b > a for b, a in zip(self.bounds, self.bounds[1:])):
            raise ValueError("histogram bounds must be sorted ascending")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.reservoir = Reservoir(cap=cap)
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
            self.reservoir.append(value)

    @property
    def count(self) -> int:
        return self.reservoir.count

    @property
    def sum(self) -> float:
        return self.reservoir.total

    @property
    def mean(self) -> float:
        return self.reservoir.mean

    def percentile(self, q: float) -> float:
        return self.reservoir.percentile(q)


Metric = Union[Counter, Gauge, Histogram]

_MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: LabelDict) -> _MetricKey:
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Thread-safe store of metric series, keyed by (name, labels).

    One registry per process is the normal deployment
    (:func:`get_registry`); worker processes record into their own and
    ship :meth:`snapshot` home, where :meth:`merge_snapshot` folds the
    partials in — counters add, gauges keep last/max per their mode,
    histograms add bucket counts and fold reservoirs.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._metrics: Dict[_MetricKey, Metric] = {}

    # -- series accessors (get-or-create) ------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        return self._series(Counter, name, labels)

    def gauge(self, name: str, mode: str = "last", **labels: str) -> Gauge:
        return self._series(Gauge, name, labels, mode=mode)

    def histogram(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_TIME_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._series(Histogram, name, labels, buckets=buckets)

    def _series(self, cls, name: str, labels: LabelDict, **kwargs) -> Metric:
        key = _key(name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                if cls is Gauge:
                    metric = Gauge(name, dict(labels), self._lock,
                                   mode=kwargs.get("mode", "last"))
                elif cls is Histogram:
                    metric = Histogram(name, dict(labels), self._lock,
                                       bounds=kwargs.get("buckets",
                                                         DEFAULT_TIME_BUCKETS))
                else:
                    metric = Counter(name, dict(labels), self._lock)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    @contextmanager
    def time(self, name: str, **labels: str):
        """Span helper: records elapsed seconds into a histogram."""
        hist = self.histogram(name, **labels)
        t0 = perf_counter()
        try:
            yield
        finally:
            hist.observe(perf_counter() - t0)

    def value(self, name: str, **labels: str) -> float:
        """Current value of a counter/gauge series (0.0 if absent)."""
        with self._lock:
            metric = self._metrics.get(_key(name, labels))
        if metric is None:
            return 0.0
        return metric.value  # type: ignore[union-attr]

    def reset(self) -> None:
        """Drop every series (workers call this at chunk start so a
        snapshot contains exactly the chunk's contribution)."""
        with self._lock:
            self._metrics.clear()

    # -- snapshot / merge ----------------------------------------------
    def snapshot(self) -> dict:
        """Plain-data export of every series (the JSON document).

        The returned dict is schema ``repro.obs/v1`` — see
        :mod:`repro.obs.export` for validation and rendering.  It is
        picklable and JSON-serializable, and is what worker processes
        send home.
        """
        counters, gauges, histograms = [], [], []
        with self._lock:
            for metric_key in sorted(self._metrics):
                metric = self._metrics[metric_key]
                entry = {"name": metric.name, "labels": dict(metric.labels)}
                if isinstance(metric, Counter):
                    entry["value"] = metric.value
                    counters.append(entry)
                elif isinstance(metric, Gauge):
                    entry["value"] = metric.value
                    entry["mode"] = metric.mode
                    gauges.append(entry)
                else:
                    # "+Inf" (the Prometheus spelling) keeps the export
                    # strict JSON; math.inf would serialize as the
                    # non-standard `Infinity` token.
                    bounds = list(metric.bounds) + ["+Inf"]
                    entry.update(
                        count=metric.count,
                        sum=metric.sum,
                        buckets=[
                            {"le": le, "count": c}
                            for le, c in zip(bounds, metric.bucket_counts)
                        ],
                        samples=list(metric.reservoir.samples),
                        p50=metric.percentile(50),
                        p99=metric.percentile(99),
                    )
                    histograms.append(entry)
        return {
            "schema": SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def merge_snapshot(self, doc: dict) -> None:
        """Fold a snapshot (a worker's partial registry) into this one."""
        if doc.get("schema") != SCHEMA:
            raise ValueError(
                f"cannot merge snapshot with schema {doc.get('schema')!r}"
            )
        for entry in doc.get("counters", ()):
            self.counter(entry["name"], **entry["labels"]).inc(entry["value"])
        for entry in doc.get("gauges", ()):
            self.gauge(
                entry["name"], mode=entry.get("mode", "last"), **entry["labels"]
            ).set(entry["value"])
        for entry in doc.get("histograms", ()):
            incoming_bounds = [b["le"] for b in entry["buckets"]]
            hist = self.histogram(
                entry["name"], buckets=incoming_bounds[:-1], **entry["labels"]
            )
            if incoming_bounds != list(hist.bounds) + ["+Inf"]:
                raise ValueError(
                    f"histogram {entry['name']!r} bucket bounds differ; "
                    "cannot merge"
                )
            incoming = Reservoir(cap=hist.reservoir.cap)
            incoming.samples = list(entry["samples"])
            incoming.count = entry["count"]
            incoming.total = entry["sum"]
            with self._lock:
                for i, b in enumerate(entry["buckets"]):
                    hist.bucket_counts[i] += b["count"]
                hist.reservoir.merge(incoming)


class _NullMetric:
    """Accepts every recording call and drops it."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    value = 0.0
    count = 0
    sum = 0.0


_NULL_METRIC = _NullMetric()


class NullRegistry(MetricsRegistry):
    """A registry that records nothing (overhead measurement / opt-out).

    Keeps the full :class:`MetricsRegistry` surface so instrumented code
    runs unchanged; every series accessor returns a shared no-op metric
    and snapshots are empty.
    """

    def __init__(self) -> None:
        super().__init__()

    def _series(self, cls, name, labels, **kwargs):
        return _NULL_METRIC

    @contextmanager
    def time(self, name: str, **labels: str):
        yield

    def snapshot(self) -> dict:
        return {"schema": SCHEMA, "counters": [], "gauges": [], "histograms": []}

    def merge_snapshot(self, doc: dict) -> None:
        pass


_REGISTRY: MetricsRegistry = MetricsRegistry()
_REGISTRY_SWAP_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry every component records into."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _REGISTRY
    with _REGISTRY_SWAP_LOCK:
        previous = _REGISTRY
        _REGISTRY = registry
        return previous
