"""Typed per-item failure envelopes for the serving layer.

A production accelerator front-end treats invalid-input rejection as a
per-operation *outcome*, not a process-level fault: one small-order peer
key in a batch of thousands must cost exactly one error slot, never the
batch.  This module defines the failure taxonomy the
:class:`~repro.serve.engine.BatchEngine` reports:

* :class:`Ok` / :class:`Failed` — the two per-item outcome envelopes.
  Successful slots in :attr:`BatchResult.results` hold the raw value
  (backwards compatible); failed slots hold the :class:`Failed`
  envelope itself, carrying a stable ``kind`` string, the original
  message, the input-order index, and the latency spent discovering the
  failure.
* :func:`classify_exception` — maps a raised exception to its kind
  (most specific class first, ``internal`` as the catch-all).
* :meth:`Failed.to_exception` — re-materializes the failure as the
  exception class its kind names, so ``strict`` mode and
  ``BatchResult.raise_any()`` reproduce the historical raise behaviour
  even for failures that crossed a process boundary as plain data.

Chunk-level faults (a worker process dying, a chunk exceeding its time
budget) use the ``worker_crash`` / ``timeout`` kinds; they appear in
retry/requeue counters rather than per-item slots because the engine
recovers such chunks by re-running them serially in the parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Type

from ..curve.encoding import DecodingError
from ..dsa.fourq_dh import SmallOrderPoint
from ..rtl.datapath import SimulationError


class BatchItemError(RuntimeError):
    """Raised for failure kinds with no dedicated exception class."""


class Overloaded(RuntimeError):
    """The serving front door refused admission: queues are full.

    Raised by :meth:`repro.serve.frontend.Frontend.submit` under the
    ``reject`` backpressure policy, and carried as the ``overloaded``
    failure kind when a queued request is shed (``shed`` policy) or a
    non-draining close abandons it.  A transient, retryable condition —
    the request was never executed.
    """


class DeadlineExceeded(RuntimeError):
    """The request's end-to-end deadline expired before it completed.

    Carried as the ``deadline`` failure kind: a request that expires
    while queued in the front door, blocked at admission, or still
    unstarted when the engine's batch budget runs out resolves with
    this typed failure instead of executing late.  The request may
    have been partially attempted (a retried chunk), but its result
    was never delivered — retrying with a larger budget is safe for
    idempotent workloads like scalar multiplication.
    """


class CircuitOpen(RuntimeError):
    """The worker-pool circuit breaker is open and fail-fast is on.

    Carried as the ``circuit_open`` failure kind when the engine is
    configured with ``circuit_mode="fail_fast"``; in the default
    ``"serial"`` mode an open breaker degrades to in-process execution
    instead and this kind never reaches callers.  Transient: the
    breaker half-opens after its reset timeout and closes again once a
    probe batch succeeds.
    """


#: Stable error-kind strings (the ``kind`` label of ``repro_serve_errors_total``).
KIND_SMALL_ORDER = "small_order"
KIND_DECODING = "decoding"
KIND_SIMULATION = "simulation"
KIND_VALUE = "value"
KIND_TYPE = "type"
KIND_WORKER_CRASH = "worker_crash"
KIND_TIMEOUT = "timeout"
KIND_OVERLOADED = "overloaded"
KIND_CANCELLED = "cancelled"
KIND_DEADLINE = "deadline"
KIND_CIRCUIT_OPEN = "circuit_open"
KIND_INTERNAL = "internal"

#: Classification table, most specific class first (DecodingError and
#: SmallOrderPoint are ValueError subclasses; SimulationError,
#: Overloaded, DeadlineExceeded, and CircuitOpen are RuntimeError
#: subclasses).
_CLASSIFICATION = (
    (SmallOrderPoint, KIND_SMALL_ORDER),
    (DecodingError, KIND_DECODING),
    (SimulationError, KIND_SIMULATION),
    (Overloaded, KIND_OVERLOADED),
    (DeadlineExceeded, KIND_DEADLINE),
    (CircuitOpen, KIND_CIRCUIT_OPEN),
    (ValueError, KIND_VALUE),
    (TypeError, KIND_TYPE),
)

#: kind -> exception class used to re-materialize a Failed envelope.
_KIND_TO_EXCEPTION: dict = {kind: cls for cls, kind in _CLASSIFICATION}


def classify_exception(exc: BaseException) -> str:
    """The stable kind string for a per-item exception."""
    for cls, kind in _CLASSIFICATION:
        if isinstance(exc, cls):
            return kind
    return KIND_INTERNAL


@dataclass(frozen=True)
class Ok:
    """A successful per-item outcome (``value`` is the raw result)."""

    value: Any
    index: int = -1

    @property
    def ok(self) -> bool:
        return True


@dataclass(frozen=True)
class Failed:
    """A typed per-item failure: the request was rejected, not the batch.

    Attributes:
        kind: stable taxonomy string (``small_order``, ``decoding``,
            ``value``, ``type``, ``simulation``, ``internal``).
        message: the original exception message.
        index: position of the failed item in the input batch.
        latency: seconds spent before the failure was detected.
    """

    kind: str
    message: str
    index: int = -1
    # Observability metadata, not identity: two runs of the same batch
    # produce equal envelopes regardless of timing.
    latency: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return False

    def exception_class(self) -> Type[Exception]:
        return _KIND_TO_EXCEPTION.get(self.kind, BatchItemError)

    def to_exception(self) -> Exception:
        """Re-materialize the failure as its original exception class."""
        return self.exception_class()(self.message)
