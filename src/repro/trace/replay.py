"""Replay a cached shape's golden values from its trace.

The paper records the SM algorithm's execution trace once, schedules
it, and then runs that fixed program for every scalar; only the data
changes (Section III-C, Fig. 2).  :class:`Replay` serves a cache hit
the same way.  It holds one filled trace as a flat op table and
recomputes every value of a new request with the field layer
(``fp2_mul``, ``fp2_sqr``, ``fp2_add``, ``fp2_sub``, ``fp2_neg``,
``fp2_conj``): the curve code does not run again.  The only
per-request data are the input values and the recodings, which drive
the SELECTs.

Which digit or sign drives which SELECT, and which leaf each value
picks, is the *select map*.  :func:`build_replay` derives it from the
real main loop (:func:`~repro.curve.scalarmult.fourq_main_loop` or
:func:`~repro.curve.scalarmult.double_base_main_loop`), run with
:class:`_Probe` ops that do no arithmetic and recodings that log each
digit and sign read:

* a SELECT is driven by the last digit or sign the loop read before it;
* a table mux lists the table in order (``r2_select``), so its leaf for
  digit d is its d-th alternative;
* a sign mux's leaf for each sign is the source it chose in a pass
  that read that sign.

The map becomes the golden source of every hit's SELECT choices, so a
wrong map would put the same wrong value in the recording and on the
tape.  :func:`build_replay` therefore checks it before it returns:

* eight probe passes (the two the map came from among them) show
  every digit value 0-7 and both signs at every SELECT (the top sign
  only +1, the one value the loops admit), with neighbouring positions
  and recodings given different values; each SELECT's choice must be
  the map's;
* the filling request's replay must equal its full trace value for
  value, choice for choice, output for output.

Any failure raises :class:`ReplayError`, and the cache stores nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

from ..curve.recoding import RecodedScalar
from ..field.fp2 import Fp2Raw, fp2_add, fp2_conj, fp2_mul, fp2_neg, fp2_sqr, fp2_sub
from .ops import OpKind
from .tracer import Tracer, ValueRecorder

#: The field-layer function of each computing op kind.
FIELD_OPS: Dict[OpKind, Callable[..., Fp2Raw]] = {
    OpKind.MUL: fp2_mul,
    OpKind.SQR: fp2_sqr,
    OpKind.ADD: fp2_add,
    OpKind.SUB: fp2_sub,
    OpKind.NEG: fp2_neg,
    OpKind.CONJ: fp2_conj,
}

#: Indices into a recoding's (digits, signs) pair.
DIGIT, SIGN = 0, 1


class ReplayError(ValueError):
    """A replay could not be built, or failed a check at fill."""


@dataclass(frozen=True)
class MainLoop:
    """The main loop a traced program ran, as its trace builder saw it.

    ``run(ops, recodings)`` runs the same loop on the same tables, each
    value given as its uid, with other ops and recodings;
    ``recodings`` are the ones the traced request used; the loop
    emitted uids ``start .. stop - 1``.
    """

    run: Callable[[Any, Sequence[Any]], Any]
    recodings: Tuple[RecodedScalar, ...]
    start: int
    stop: int


class SelectRead(NamedTuple):
    """One SELECT of the select map.

    ``leaves[value]`` is the source uid the SELECT passes on when digit
    or sign ``position`` of recoding ``recoding`` reads ``value``
    (``role`` is :data:`DIGIT` or :data:`SIGN`).
    """

    uid: int
    recoding: int
    role: int
    position: int
    leaves: Any  # Tuple[int, ...] by digit, or Dict[int, int] by sign


@dataclass(frozen=True)
class Replay:
    """A filled trace as a flat op table plus its select map.

    ``preset`` holds each constant at its uid (None elsewhere).  The
    op table lists every computing op and SELECT in uid order, in
    columns (about 0.1 MB less per cached shape than a tuple per op):
    ``uids``, ``fns`` (the field function, None for a SELECT), ``xs``
    and ``ys`` (the source uids; ``ys`` is None for a unary op).
    """

    preset: Tuple[Optional[Fp2Raw], ...]
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]
    uids: Tuple[int, ...]
    fns: Tuple[Optional[Callable[..., Fp2Raw]], ...]
    xs: Tuple[Optional[int], ...]
    ys: Tuple[Optional[int], ...]
    selects: Tuple[SelectRead, ...]
    n_recodings: int
    length: int

    def record(
        self, inputs: Sequence[Fp2Raw], recodings: Sequence[RecodedScalar]
    ) -> ValueRecorder:
        """The recording of one request: its values, choices and outputs.

        Raises:
            ValueError: on the wrong number of inputs or recodings, a
                recoding of the wrong length, or one whose top sign is
                not +1.
        """
        if len(inputs) != len(self.inputs):
            raise ValueError(f"expected {len(self.inputs)} inputs, got {len(inputs)}")
        if len(recodings) != self.n_recodings:
            raise ValueError(f"expected {self.n_recodings} recodings")
        reads = []
        for rec in recodings:
            if rec.length != self.length or rec.signs[-1] != 1:
                raise ValueError("a recoding must have the traced length and top sign +1")
            reads.append((rec.digits, rec.signs))
        chosen = {
            uid: leaves[reads[r][role][pos]] for uid, r, role, pos, leaves in self.selects
        }
        values: List[Any] = list(self.preset)
        for uid, value in zip(self.inputs, inputs):
            values[uid] = value
        for uid, fn, x, y in zip(self.uids, self.fns, self.xs, self.ys):
            if fn is None:
                values[uid] = values[chosen[uid]]
            elif y is None:
                values[uid] = fn(values[x])
            else:
                values[uid] = fn(values[x], values[y])
        return ValueRecorder(values=values, chosen=chosen, outputs=list(self.outputs))


# ---------------------------------------------------------------------
# Probing the main loop
# ---------------------------------------------------------------------


class _LoggedReads:
    """One recoding's digits or signs; each read is logged."""

    def __init__(self, values: Sequence[int], log: List, key: Tuple[int, int]):
        self._values = values
        self._log = log
        self._key = key

    def __getitem__(self, i: int) -> int:
        self._log.append(self._key + (i,))
        return self._values[i]

    def __len__(self) -> int:
        return len(self._values)


class _ProbeRecoding:
    def __init__(self, digits: List[int], signs: List[int], log: List, r: int):
        self.digits = _LoggedReads(digits, log, (r, DIGIT))
        self.signs = _LoggedReads(signs, log, (r, SIGN))
        self.length = len(digits)


class _Probe:
    """Fp2Ops that do no arithmetic: the loop's uids and SELECTs.

    Values are bare uids, continuing from the loop's first uid exactly
    as the :class:`Tracer` handed them out.  Each SELECT is logged with
    the read that drives it (the last one before it), its alternatives
    and the source it chose.  ``reads[r]`` is recoding r's (digits,
    signs) for this pass.
    """

    def __init__(self, start: int, reads: List[Tuple[List[int], List[int]]]):
        self.reads = reads
        self.log: List[Tuple[int, int, int]] = []
        self.selects: List[Tuple[int, Tuple[int, int, int], Tuple[int, ...], int]] = []
        self._next = itertools.count(start).__next__

    def mul(self, a: int, b: int) -> int:
        return self._next()

    add = sub = mul

    def sqr(self, a: int) -> int:
        return self._next()

    neg = conj = sqr

    def const(self, value: Fp2Raw, name: str = "const") -> int:
        raise ReplayError("the main loop emits a constant; the probe cannot follow it")

    def select(self, chosen: int, *alternatives: int) -> int:
        if chosen not in alternatives or not self.log:
            raise ReplayError("a SELECT the probe cannot attribute")
        uid = self._next()
        self.selects.append((uid, self.log[-1], alternatives, chosen))
        return uid


def _probe(loop: MainLoop, j: int) -> _Probe:
    """Probe pass ``j``: position i of recoding r reads digit
    (i + 3r + j) mod 8 and sign (-1)^(i + r + j), the top sign +1."""
    reads = []
    for r, rec in enumerate(loop.recodings):
        n = rec.length
        digits = [(i + 3 * r + j) % 8 for i in range(n)]
        signs = [1 if (i + r + j) % 2 == 0 else -1 for i in range(n - 1)] + [1]
        reads.append((digits, signs))
    probe = _Probe(loop.start, reads)
    loop.run(
        probe,
        [_ProbeRecoding(d, s, probe.log, r) for r, (d, s) in enumerate(reads)],
    )
    if probe._next() != loop.stop:
        raise ReplayError("the probe emitted a different number of ops than the trace")
    return probe


def derive_selects(first: _Probe, second: _Probe) -> Tuple[SelectRead, ...]:
    """The select map from two probe passes whose signs are opposite.

    A table mux's leaves are its alternatives in table order; a sign
    mux's leaf for each sign is the source it chose in the pass that
    read that sign.
    """
    sign_leaves: Dict[int, Dict[int, int]] = {}
    for probe in (first, second):
        for uid, (r, role, pos), _alts, chosen in probe.selects:
            if role == SIGN:
                sign_leaves.setdefault(uid, {})[probe.reads[r][SIGN][pos]] = chosen
    return tuple(
        SelectRead(uid, r, role, pos, alts if role == DIGIT else sign_leaves[uid])
        for uid, (r, role, pos), alts, _chosen in first.selects
    )


def check_selects(selects: Sequence[SelectRead], passes: Iterable[_Probe]) -> None:
    """Every SELECT's choice in every probe pass must be the map's.

    Across the eight passes of :func:`_probe` each position reads every
    digit value and both signs, while neighbouring positions and the
    two recodings of a double-base loop always read different values:
    a SELECT mapped to the wrong position or recoding, or to the wrong
    leaf, chooses differently from the loop.
    """
    by_uid = {sel.uid: sel for sel in selects}
    for probe in passes:
        if len(probe.selects) != len(by_uid):
            raise ReplayError("the select map does not cover the loop's SELECTs")
        for uid, _read, _alts, chosen in probe.selects:
            try:
                sel = by_uid[uid]
                value = probe.reads[sel.recoding][sel.role][sel.position]
                expected = sel.leaves[value]
            except (IndexError, KeyError):
                raise ReplayError(f"SELECT v{uid} is not in the select map") from None
            if expected != chosen:
                raise ReplayError(
                    f"SELECT v{uid} chose v{chosen} for {value}, the map says v{expected}"
                )


def build_replay(tracer: Tracer, loop: MainLoop) -> Replay:
    """Derive, check and return the replay of one filled trace.

    Raises:
        ReplayError: if the probe cannot follow the loop, the select
            map fails :func:`check_selects`, or the filling request's
            replay differs from its trace.
    """
    trace = tracer.trace
    const, select, input_ = OpKind.CONST, OpKind.SELECT, OpKind.INPUT
    first, second = _probe(loop, 0), _probe(loop, 1)
    # One walk of the trace builds the op table and matches every traced
    # SELECT, in order, with the probe's: same uid, same alternatives.
    probed = iter(first.selects)
    preset: List[Optional[Fp2Raw]] = [None] * len(trace)
    rows = []
    for uid, kind, srcs, value, _name in trace:
        if kind is const:
            preset[uid] = value
        elif kind is select:
            probe_uid, _read, alts, _chosen = next(probed, (None, None, (), None))
            if probe_uid != uid or sorted(srcs) != sorted(alts):
                raise ReplayError(f"SELECT v{uid} differs from the probed loop's")
            rows.append((uid, None, None, None))
        elif kind is not input_:
            rows.append((uid, FIELD_OPS[kind], srcs[0], srcs[1] if len(srcs) == 2 else None))
    if next(probed, None) is not None:
        raise ReplayError("the probed loop has SELECTs the trace lacks")
    selects = derive_selects(first, second)
    # One pass at a time: the fill's peak memory holds three, not eight.
    check_selects(
        selects, itertools.chain((first, second), (_probe(loop, j) for j in range(2, 8)))
    )
    uids, fns, xs, ys = zip(*rows)
    replay = Replay(
        preset=tuple(preset),
        inputs=tuple(tracer.inputs),
        outputs=tuple(tracer.outputs),
        uids=uids,
        fns=fns,
        xs=xs,
        ys=ys,
        selects=selects,
        n_recodings=len(loop.recodings),
        length=loop.recodings[0].length,
    )
    got = replay.record([trace[uid].value for uid in tracer.inputs], loop.recodings)
    if got != ValueRecorder.of(tracer):
        raise ReplayError("the replay of the filling request differs from its trace")
    return replay
