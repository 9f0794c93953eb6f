"""Order statistics shared by the ledger's runner, workloads and compare.

The harness keeps its own rather than calling ``repro.obs.percentile``,
so that a change to the program cannot move the benchmark's numbers.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence, Tuple

#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: Sequence[float], q: float,
                    min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The q-th percentile, or None when fewer than ``min_beyond``
    samples lie beyond it (the sample cannot support that tail)."""
    if not samples:
        return None
    value = percentile(samples, q)
    beyond = sum(1 for s in samples if s > value)
    return value if beyond >= min_beyond else None


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0
