"""Serving layer: batched, cached, fault-isolated scalar multiplication.

The design flow compiles a scalar multiplication into a verified
microprogram; this package amortizes that compilation across many
requests the way the paper's chip amortizes its silicon:

* :class:`~repro.serve.cache.FlowArtifactCache` — one job-shop solve +
  register allocation per workload *shape*, LRU-bounded, with hit/miss
  counters;
* :class:`~repro.serve.engine.BatchEngine` — ``batch_scalarmult`` /
  ``batch_dh`` / ``batch_verify`` (per-item simulation or amortized
  ``mode="msm"`` randomized batch verification) / ``batch_msm``
  streaming scalars through a reused
  :class:`~repro.rtl.datapath.DatapathSimulator`, optionally fanned out
  across worker processes with chunk-level crash containment;
* :class:`~repro.serve.faults.Ok` / :class:`~repro.serve.faults.Failed`
  — typed per-item outcomes: one poisoned request costs one error slot,
  never the batch (``strict=True`` raises the first failure once the
  whole batch has run);
* :class:`~repro.serve.frontend.Frontend` — the asyncio front door:
  streamed ``await submit(kind, payload, deadline=...)`` requests
  coalesced into engine batches (dispatched whenever the engine is free), bounded
  queues with block/reject/shed admission control, end-to-end request
  deadlines, graceful drain;
* :mod:`~repro.serve.net` — the network front door:
  :class:`~repro.serve.net.server.NetServer` exposes the Frontend over
  a length-prefixed framed TCP protocol with per-connection
  fairness in the Frontend queue, per-connection backpressure, clamped
  deadline propagation, and graceful GOAWAY drain;
  :class:`~repro.serve.net.client.NetClient` is the matching pipelined
  client library (see ``docs/protocol.md``);
* :mod:`~repro.serve.resilience` — the fault-tolerance primitives:
  :class:`~repro.serve.resilience.Deadline` budgets,
  :class:`~repro.serve.resilience.RetryPolicy` jittered backoff,
  the :class:`~repro.serve.resilience.PoolSupervisor` that keeps one
  worker pool resident (restart-storm limited by a
  :class:`~repro.serve.resilience.TokenBucket`), and the
  :class:`~repro.serve.resilience.CircuitBreaker` that degrades the
  engine to serial in-process execution when the pool keeps failing.

Every layer records into one :class:`~repro.obs.MetricsRegistry`
(``metrics=`` on each constructor; the process-wide registry by
default) — ops, latency quantiles, cache hit rate, simulated cycles,
error kinds, recovery counters.  See ``docs/serving.md`` for the
cache-keying, verification, fault-tolerance, and error contract
stories.
"""

from .cache import FlowArtifactCache, FlowArtifacts, trace_shape_key
from .engine import (
    BatchEngine,
    BatchResult,
    default_engine,
)
from .faults import (
    BatchItemError,
    DeadlineExceeded,
    Failed,
    Ok,
    Overloaded,
    classify_exception,
)
from .frontend import Frontend, FrontendClosed, FrontendConfig
from .net import NetClient, NetClientClosed, NetServer, NetServerConfig
from .resilience import (
    CircuitBreaker,
    Deadline,
    PoolSupervisor,
    RetryPolicy,
    TokenBucket,
)

__all__ = [
    "BatchEngine",
    "BatchItemError",
    "BatchResult",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "Failed",
    "FlowArtifactCache",
    "FlowArtifacts",
    "Frontend",
    "FrontendClosed",
    "FrontendConfig",
    "NetClient",
    "NetClientClosed",
    "NetServer",
    "NetServerConfig",
    "Ok",
    "Overloaded",
    "PoolSupervisor",
    "RetryPolicy",
    "TokenBucket",
    "classify_exception",
    "default_engine",
    "trace_shape_key",
]
