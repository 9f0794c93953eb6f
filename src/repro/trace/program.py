"""Traced program builders: the complete SM pipeline as micro-op DAGs.

These functions run the real curve code with a :class:`Tracer` as the
ops object, producing self-checking micro-operation traces:

* :func:`trace_loop_iteration` — one double-and-add iteration, the
  kernel of Fig. 2(b) / Table I (15 muls + 13 add/subs);
* :func:`trace_scalar_mult` — the full Algorithm 1 (endomorphisms,
  table construction, 64 iterations, final normalization), several
  thousand micro-ops, annotated with sections for profiling.

The builders the serving engine runs (:func:`trace_scalar_mult`,
:func:`trace_double_scalar_mult`, :func:`trace_msm_window`) also accept
a :class:`~repro.trace.tracer.ValueRecorder` as ``tracer``: the same
arithmetic, recorded as values only, for a cache hit that replays a
compiled program.  Such a program's ``retrace`` rebuilds the full
micro-op trace from the same arguments.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..curve.committed import curve_constants
from ..curve.edwards import (
    PointR1,
    PointR2,
    ecc_add_core,
    ecc_double,
    ecc_normalize,
    r1_to_r2,
    r2_negate,
)
from ..curve.endomaps import apply_compiled_endo_frac, frac_to_r1
from ..curve.params import SUBGROUP_ORDER_N
from ..curve.point import AffinePoint
from ..curve.scalarmult import (
    _recode,
    build_table,
    double_base_main_loop,
    fourq_main_loop,
)
from .tracer import Tracer, ValueRecorder


@dataclass
class TraceProgram:
    """A recorded program: the tracer plus workload metadata.

    ``retrace`` is set when ``tracer`` is a value-only
    :class:`~repro.trace.tracer.ValueRecorder`: it runs the same builder
    again with a full :class:`Tracer`.
    """

    tracer: Tracer
    description: str
    scalar: Optional[int] = None
    point: Optional[AffinePoint] = None
    expected: Optional[AffinePoint] = None
    retrace: Optional[Callable[[], "TraceProgram"]] = None

    @property
    def size(self) -> int:
        """Total number of trace entries (including consts/inputs)."""
        return len(self.tracer.trace)

    @property
    def arithmetic_size(self) -> int:
        return self.tracer.arithmetic_size()

    def section_counts(self) -> Dict[str, Tuple[int, int]]:
        """Per-section (multiplier_ops, addsub_ops) totals."""
        from .ops import Unit

        out: Dict[str, Tuple[int, int]] = {}
        for name, start, end in self.tracer.sections:
            m = a = 0
            for op in self.tracer.trace[start:end]:
                if op.unit is Unit.MULTIPLIER:
                    m += 1
                elif op.unit is Unit.ADDSUB:
                    a += 1
            key = name
            if key in out:
                m0, a0 = out[key]
                m, a = m + m0, a + a0
            out[key] = (m, a)
        return out


def _retrace(tracer: Tracer, builder: Callable[..., TraceProgram], **args):
    """How a value-only recording rebuilds its full trace (else None)."""
    if isinstance(tracer, ValueRecorder):
        return functools.partial(builder, **args)
    return None


def trace_loop_iteration(
    rng: Optional[random.Random] = None, negate: bool = True
) -> TraceProgram:
    """Trace one main-loop iteration: Q = [2]Q; Q = Q + s*T[v].

    This is the code snippet of the paper's Fig. 2(b) and the workload
    scheduled in Table I: 15 F_{p^2} multiplications and 13
    additions/subtractions (7M+6A doubling, 1A table negation, 8M+6A
    addition).
    """
    from ..curve.point import random_subgroup_point

    rng = rng or random.Random(0x10)
    p = random_subgroup_point(rng)
    q = random_subgroup_point(rng)

    tracer = Tracer()
    # Inputs: the running point Q (R1) and the table entry T[v] (R2).
    q_r1_raw = _affine_to_r1_raw(q)
    t_r2_raw = _affine_to_r2_raw(p)
    q_r1 = PointR1(
        tracer.input(q_r1_raw.x, "Qx"),
        tracer.input(q_r1_raw.y, "Qy"),
        tracer.input(q_r1_raw.z, "Qz"),
        tracer.input(q_r1_raw.ta, "Qta"),
        tracer.input(q_r1_raw.tb, "Qtb"),
    )
    t_r2 = PointR2(
        tracer.input(t_r2_raw.yx_plus, "T_Y+X"),
        tracer.input(t_r2_raw.yx_minus, "T_Y-X"),
        tracer.input(t_r2_raw.z2, "T_2Z"),
        tracer.input(t_r2_raw.t2d, "T_2dT"),
    )

    tracer.begin_section("double")
    q2 = ecc_double(q_r1, tracer)
    tracer.end_section()
    tracer.begin_section("select")
    # Constant-time sign selection — the idiom of the real main loop
    # (scalarmult._r2_sign_select): the negation is always computed and
    # muxes route the chosen sign, so both branches emit the identical
    # op sequence AND the identical DAG shape (SELECT sources are
    # sorted in the shape key).  Either sign therefore serves from one
    # cached flow entry.  The negation is additionally pinned live:
    # even if a future rewrite bypassed the mux, dead-value elimination
    # must never delete the balanced op and split the shapes again.
    from ..curve.scalarmult import _r2_sign_select

    negated = r2_negate(t_r2, tracer)
    tracer.mark_live(negated.t2d)
    entry = _r2_sign_select(t_r2, negated, -1 if negate else 1, tracer)
    tracer.end_section()
    tracer.begin_section("add")
    q3 = ecc_add_core(q2, entry, tracer)
    tracer.end_section()
    for val, name in (
        (q3.x, "Qx'"),
        (q3.y, "Qy'"),
        (q3.z, "Qz'"),
        (q3.ta, "Qta'"),
        (q3.tb, "Qtb'"),
    ):
        tracer.mark_output(val, name)

    expected = (q + q) + (-p if negate else p)
    return TraceProgram(
        tracer=tracer,
        description="double-and-add loop iteration (Fig. 2(b) / Table I)",
        point=q,
        expected=expected,
    )


def _trace_endo_images(
    points: List[Tuple], one, tracer: Tracer
) -> List[Tuple[PointR1, PointR1, PointR1]]:
    """phi(P), psi(P), psi(phi(P)) of each traced input point, in R1.

    Runs the compiled inversion-free maps, point by point; the caller
    opens the ``endo`` section.
    """
    phi_c, psi_c = curve_constants().compiled
    images = []
    for px, py in points:
        fx_phi, fy_phi = apply_compiled_endo_frac(phi_c, (px, one), (py, one), tracer)
        phi_r1 = frac_to_r1(fx_phi, fy_phi, tracer)
        fx_psi, fy_psi = apply_compiled_endo_frac(psi_c, (px, one), (py, one), tracer)
        psi_r1 = frac_to_r1(fx_psi, fy_psi, tracer)
        fx_pp, fy_pp = apply_compiled_endo_frac(psi_c, fx_phi, fy_phi, tracer)
        images.append((phi_r1, psi_r1, frac_to_r1(fx_pp, fy_pp, tracer)))
    return images


def trace_double_scalar_mult(
    u1: Optional[int] = None,
    u2: Optional[int] = None,
    p1: Optional[AffinePoint] = None,
    p2: Optional[AffinePoint] = None,
    self_check: bool = True,
    tracer: Optional[Tracer] = None,
) -> TraceProgram:
    """Trace [u1]P1 + [u2]P2 — the signature-verification workload.

    ECDSA/Schnorr verification computes exactly this (paper Section
    II-A, verification step 4).  Interleaves two decomposed/recoded
    scalars over one shared 64-iteration double-and-add loop
    (Straus-Shamir, :func:`repro.curve.scalarmult.double_base_main_loop`),
    so one iteration costs one doubling plus two table additions: 24
    multiplier ops vs the single-scalar 15.

    Sections: ``endo`` (both points), ``table`` (two 8-entry tables),
    ``loop``, ``normalize``.
    """
    rng = random.Random(0xD5)
    from ..curve.point import random_subgroup_point

    p1 = p1 or AffinePoint.generator()
    p2 = p2 or random_subgroup_point(rng)
    # Independent derived streams: passing one of u1/u2 explicitly must
    # not shift which value the other defaults to.
    u1 = random.Random(0xD5F1).randrange(2**256) if u1 is None else u1
    u2 = random.Random(0xD5F2).randrange(2**256) if u2 is None else u2

    tracer = tracer if tracer is not None else Tracer()
    one = tracer.const((1, 0), "one")
    tracer.begin_section("endo")
    point_inputs = [
        (tracer.input(pt.x, f"{tag}x"), tracer.input(pt.y, f"{tag}y"))
        for tag, pt in (("P1", p1), ("P2", p2))
    ]
    images = _trace_endo_images(point_inputs, one, tracer)
    tracer.end_section()

    tracer.begin_section("table")
    tables = [
        build_table(PointR1(px, py, one, px, py), *image, tracer)
        for (px, py), image in zip(point_inputs, images)
    ]
    tracer.end_section()

    tracer.begin_section("loop")
    decomposer = curve_constants().decomposer
    recs = [_recode(u, decomposer) for u in (u1, u2)]
    q = double_base_main_loop(tables, recs, tracer)
    tracer.end_section()

    tracer.begin_section("normalize")
    x_out, y_out = ecc_normalize(q, tracer)
    tracer.end_section()
    tracer.mark_output(x_out, "result_x")
    tracer.mark_output(y_out, "result_y")

    expected = None
    if self_check:
        expected = (u1 % SUBGROUP_ORDER_N) * p1 + (u2 % SUBGROUP_ORDER_N) * p2
        if (x_out.value, y_out.value) != (expected.x, expected.y):
            raise AssertionError("traced double-scalar execution diverged")
    return TraceProgram(
        tracer=tracer,
        description="double-scalar multiplication [u1]P1 + [u2]P2 (verification)",
        scalar=u1,
        point=p1,
        expected=expected,
        retrace=_retrace(
            tracer, trace_double_scalar_mult, u1=u1, u2=u2, p1=p1, p2=p2,
            self_check=self_check,
        ),
    )


def trace_loop_iterations(
    n: int, rng: Optional[random.Random] = None
) -> TraceProgram:
    """Trace ``n`` chained main-loop iterations (for pipelining studies).

    Iteration j doubles the running point and adds a table entry; the
    output of iteration j is the input of iteration j+1, giving the
    loop-carried dependency structure the modulo scheduler needs.  Each
    iteration is tagged as section ``iter[j]``.
    """
    from ..curve.point import random_subgroup_point

    rng = rng or random.Random(0x17)
    q0 = random_subgroup_point(rng)
    t_pt = random_subgroup_point(rng)

    tracer = Tracer()
    q_raw = _affine_to_r1_raw(q0)
    t_raw = _affine_to_r2_raw(t_pt)
    q = PointR1(
        tracer.input(q_raw.x, "Qx"),
        tracer.input(q_raw.y, "Qy"),
        tracer.input(q_raw.z, "Qz"),
        tracer.input(q_raw.ta, "Qta"),
        tracer.input(q_raw.tb, "Qtb"),
    )
    t_r2 = PointR2(
        tracer.input(t_raw.yx_plus, "T_Y+X"),
        tracer.input(t_raw.yx_minus, "T_Y-X"),
        tracer.input(t_raw.z2, "T_2Z"),
        tracer.input(t_raw.t2d, "T_2dT"),
    )
    expected = q0
    for j in range(n):
        tracer.begin_section(f"iter[{j}]")
        q = ecc_double(q, tracer)
        entry = r2_negate(t_r2, tracer)
        q = ecc_add_core(q, entry, tracer)
        tracer.end_section()
        expected = (expected + expected) + (-t_pt)
    for val, name in (
        (q.x, "Qx'"),
        (q.y, "Qy'"),
        (q.z, "Qz'"),
        (q.ta, "Qta'"),
        (q.tb, "Qtb'"),
    ):
        tracer.mark_output(val, name)
    return TraceProgram(
        tracer=tracer,
        description=f"{n} chained double-and-add loop iterations",
        point=q0,
        expected=expected,
    )


def trace_msm_window(
    n_points: int = 8,
    window: int = 4,
    rng: Optional[random.Random] = None,
    tracer: Optional[Tracer] = None,
) -> TraceProgram:
    """Trace one Pippenger bucket window — the batch-MSM ASIC kernel.

    The serving layer's batch verification spends its cycles in
    :func:`repro.curve.multiscalar.msm_bucket_window`: shift the
    accumulator (``window`` doublings), add each point into the bucket
    its digit selects, fold the buckets with the running-sum trick.
    This traces that kernel at a *fixed shape* — digit i is
    deterministically ``(i mod (2^window - 1)) + 1``, so every point
    lands in a bucket and the micro-op DAG is identical across calls,
    which is what lets the flow-artifact cache amortize the job-shop
    solve.  Sections: ``double``, ``bucket``, ``aggregate``.

    The traced values self-check against the affine reference
    ``[2^window]A + sum_i d_i P_i``.
    """
    from ..curve.multiscalar import msm_bucket_window
    from ..curve.point import random_subgroup_point

    if n_points < 1:
        raise ValueError("n_points must be >= 1")
    if not (2 <= window <= 8):
        raise ValueError("window must be in [2, 8]")
    rng = rng or random.Random(0x3B)
    rng_state = rng.getstate()
    acc0 = random_subgroup_point(rng)
    pts = [random_subgroup_point(rng) for _ in range(n_points)]
    digits = [(i % ((1 << window) - 1)) + 1 for i in range(n_points)]

    tracer = tracer if tracer is not None else Tracer()
    acc_raw = _affine_to_r1_raw(acc0)
    acc = PointR1(
        tracer.input(acc_raw.x, "Ax"),
        tracer.input(acc_raw.y, "Ay"),
        tracer.input(acc_raw.z, "Az"),
        tracer.input(acc_raw.ta, "Ata"),
        tracer.input(acc_raw.tb, "Atb"),
    )
    point_r2s = []
    for j, pt in enumerate(pts):
        raw = _affine_to_r2_raw(pt)
        point_r2s.append(
            PointR2(
                tracer.input(raw.yx_plus, f"P{j}_Y+X"),
                tracer.input(raw.yx_minus, f"P{j}_Y-X"),
                tracer.input(raw.z2, f"P{j}_2Z"),
                tracer.input(raw.t2d, f"P{j}_2dT"),
            )
        )

    # Same operation sequence as msm_bucket_window, with the three
    # stages tagged as sections for the occupancy report.
    from ..curve.scalarmult import _reseed_with_valid_t

    tracer.begin_section("double")
    for _ in range(window):
        acc = ecc_double(acc, tracer)
    tracer.end_section()

    tracer.begin_section("bucket")
    buckets: List[Optional[PointR1]] = [None] * ((1 << window) - 1)
    for r2, digit in zip(point_r2s, digits):
        held = buckets[digit - 1]
        if held is None:
            buckets[digit - 1] = _reseed_with_valid_t(r2, tracer)
        else:
            buckets[digit - 1] = ecc_add_core(held, r2, tracer)
    tracer.end_section()

    tracer.begin_section("aggregate")
    running: Optional[PointR1] = None
    wsum: Optional[PointR1] = None
    for bucket in reversed(buckets):
        if bucket is not None:
            running = (
                bucket
                if running is None
                else ecc_add_core(running, r1_to_r2(bucket, tracer), tracer)
            )
        if running is not None:
            wsum = (
                running
                if wsum is None
                else ecc_add_core(wsum, r1_to_r2(running, tracer), tracer)
            )
    assert wsum is not None  # every digit is nonzero by construction
    acc = ecc_add_core(acc, r1_to_r2(wsum, tracer), tracer)
    tracer.end_section()

    for val, name in (
        (acc.x, "Ax'"),
        (acc.y, "Ay'"),
        (acc.z, "Az'"),
        (acc.ta, "Ata'"),
        (acc.tb, "Atb'"),
    ):
        tracer.mark_output(val, name)

    expected = (1 << window) * acc0
    for digit, pt in zip(digits, pts):
        expected = expected + digit * pt
    from ..field.fp2 import fp2_inv as _inv, fp2_mul as _mul

    zx = _inv(acc.z.value)
    got = (_mul(acc.x.value, zx), _mul(acc.y.value, zx))
    if got != (expected.x, expected.y):
        raise AssertionError("traced MSM window diverged from the reference")
    # Cross-check the inlined kernel against the serving-path helper.
    raw = msm_bucket_window(
        _affine_to_r1_raw(acc0),
        [_affine_to_r2_raw(p) for p in pts],
        digits,
        window,
    )
    zr = _inv(raw.z)
    if (_mul(raw.x, zr), _mul(raw.y, zr)) != (expected.x, expected.y):
        raise AssertionError("msm_bucket_window diverged from the trace")
    return TraceProgram(
        tracer=tracer,
        description=(
            f"Pippenger bucket window ({n_points} points, {window}-bit digits)"
        ),
        point=acc0,
        expected=expected,
        retrace=_retrace(
            tracer, lambda: trace_msm_window(n_points, window, _rng_at(rng_state))
        ),
    )


def _rng_at(state) -> random.Random:
    rng = random.Random()
    rng.setstate(state)
    return rng


def _affine_to_r1_raw(p: AffinePoint) -> PointR1:
    from ..curve.edwards import point_r1_from_affine

    return point_r1_from_affine(p.x, p.y)


def _affine_to_r2_raw(p: AffinePoint) -> PointR2:
    from ..curve.edwards import point_r1_from_affine

    return r1_to_r2(point_r1_from_affine(p.x, p.y))


def trace_scalar_mult(
    k: Optional[int] = None,
    point: Optional[AffinePoint] = None,
    include_endomorphisms: bool = True,
    self_check: bool = True,
    tracer: Optional[Tracer] = None,
) -> TraceProgram:
    """Trace the complete Algorithm 1 for a concrete (k, P).

    Sections recorded: ``endo`` (phi(P), psi(P), psi(phi(P)) through the
    compiled inversion-free maps), ``table`` (the 8-entry precomputed
    table), ``loop`` (the 64 double-and-add iterations), ``normalize``
    (the final inversion chain and two multiplications).

    With ``include_endomorphisms=False`` the endomorphism images enter
    as preloaded inputs instead (the variant used to cross-check the
    datapath simulator against the math layer independently of the
    endomorphism formulas).

    ``self_check=False`` skips the independent ``(k mod N) * P``
    affine-ladder cross-check (and leaves ``expected`` unset).  The
    batch engine uses this on its hot path: the affine reference costs
    more than the trace itself, and the datapath run is still verified
    op by op against the traced values.
    """
    rng = random.Random(0xA1)
    point = point or AffinePoint.generator()
    if k is None:
        k = rng.randrange(2**256)

    tracer = tracer if tracer is not None else Tracer()
    px = tracer.input(point.x, "Px")
    py = tracer.input(point.y, "Py")
    one = tracer.const((1, 0), "one")

    if include_endomorphisms:
        tracer.begin_section("endo")
        ((phi_r1, psi_r1, psiphi_r1),) = _trace_endo_images([(px, py)], one, tracer)
        tracer.end_section()
    else:

        def load(pt: AffinePoint, tag: str) -> PointR1:
            raw = _affine_to_r1_raw(pt)
            return PointR1(
                tracer.input(raw.x, f"{tag}x"),
                tracer.input(raw.y, f"{tag}y"),
                tracer.input(raw.z, f"{tag}z"),
                tracer.input(raw.ta, f"{tag}ta"),
                tracer.input(raw.tb, f"{tag}tb"),
            )

        endo = curve_constants().endo
        phi_p = endo.phi(point)
        psi_p = endo.psi(point)
        psiphi_p = endo.psi(phi_p)
        phi_r1 = load(phi_p, "phiP_")
        psi_r1 = load(psi_p, "psiP_")
        psiphi_r1 = load(psiphi_p, "psiphiP_")

    p_r1 = PointR1(px, py, one, px, py)

    tracer.begin_section("table")
    table = build_table(p_r1, phi_r1, psi_r1, psiphi_r1, tracer)
    tracer.end_section()

    tracer.begin_section("loop")
    q = fourq_main_loop(table, _recode(k, curve_constants().decomposer), tracer)
    tracer.end_section()

    tracer.begin_section("normalize")
    x_out, y_out = ecc_normalize(q, tracer)
    tracer.end_section()
    tracer.mark_output(x_out, "result_x")
    tracer.mark_output(y_out, "result_y")

    expected = None
    if self_check:
        expected = (k % SUBGROUP_ORDER_N) * point
        # Self-check: the recorded concrete values must equal the reference.
        if (x_out.value, y_out.value) != (expected.x, expected.y):
            raise AssertionError("traced execution diverged from the reference")
    return TraceProgram(
        tracer=tracer,
        description="full FourQ scalar multiplication (Algorithm 1)",
        scalar=k,
        point=point,
        expected=expected,
        retrace=_retrace(
            tracer, trace_scalar_mult, k=k, point=point,
            include_endomorphisms=include_endomorphisms, self_check=self_check,
        ),
    )
