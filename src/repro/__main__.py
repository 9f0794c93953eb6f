"""Command-line entry point: ``python -m repro [command]``.

The command table below is the single source of truth — ``--help``
renders it, and ``tests/test_cli.py`` asserts every registered
subcommand appears here, so it cannot drift the way a hand-written
list would.

Commands:

* ``summary`` (default) — run the full design flow once and print the
  chip "datasheet" (cycles, registers, ROM, area, Fig. 4 headline
  points, Table II factors);
* ``verify``  — run the parameter and endomorphism self-verification,
  deriving from first principles, and compare the derivation with the
  committed constants module (exit 1 on a mismatch);
* ``derive`` — derive phi, psi and the decomposition basis and print
  the generated ``repro.curve.derived_constants`` module
  (``derive [--write]``; ``--write`` regenerates the committed file);
* ``table1``  — print the CP-optimal loop-kernel schedule;
* ``keygen``  — generate and print a FourQ keypair (demo only);
* ``serve`` — drive the asyncio continuous-batching front door with an
  in-process Poisson arrival stream and print the serving report
  (``serve [N] [--rate R] [--max-batch B] [--max-wait-ms W]
  [--policy P] [--queue Q] [--workers W] [--poison R] [--verify R]
  [--smoke] [--metrics-out PATH]``);
* ``serve-net`` — the TCP front door: run the framed-protocol network
  server (``serve-net [--port P] [--serve-for S] ...``), drive it as a
  load-generating client (``serve-net --connect HOST:PORT [N]
  [--clients C] ...``), or run the two-process end-to-end smoke
  (``serve-net --smoke``);
* ``metrics`` — validate/inspect a metrics export, or run a small
  instrumented workload and print the observability report
  (``metrics [PATH] [--check]``).

``repro --version`` prints the package version; ``repro --help`` lists
every subcommand.
"""

from __future__ import annotations

import sys
from collections import Counter


def cmd_summary() -> int:
    from .asic import calibrate, estimate_area, headline_factors
    from .flow import run_flow
    from .trace import trace_scalar_mult

    print("Running the full design flow (trace -> schedule -> microcode "
          "-> cycle-accurate simulation)...")
    prog = trace_scalar_mult(k=0x5EED << 232)
    flow = run_flow(prog)
    ok = (
        flow.simulation.outputs["result_x"] == prog.expected.x
        and flow.simulation.outputs["result_y"] == prog.expected.y
    )
    print()
    print(flow.report())
    print(f"RTL result == [k]P : {'PASS' if ok else 'FAIL'}")
    tech = calibrate(cycles=flow.cycles)
    area = estimate_area(registers=flow.microprogram.register_count)
    v_min, e_min = tech.minimum_energy_point()
    hf = headline_factors(tech)
    print()
    print(f"area estimate      : {area.total_kge:.0f} kGE (paper: 1400)")
    print(f"latency @ 1.20 V   : {tech.latency(1.2) * 1e6:.2f} us (paper: 10.1)")
    print(f"energy  @ 1.20 V   : {tech.energy(1.2) * 1e6:.2f} uJ (paper: 3.98)")
    print(f"min energy point   : {v_min:.3f} V, {e_min * 1e6:.3f} uJ "
          f"(paper: 0.32 V, 0.327 uJ)")
    print(f"vs FourQ FPGA [10] : {hf.speedup_vs_fourq_fpga:.1f}x (paper: 15.5x)")
    print(f"vs P-256 ASIC [5]  : {hf.speedup_vs_p256_asic:.2f}x (paper: 3.66x)")
    return 0 if ok else 1


def cmd_verify() -> int:
    from .curve import verify_parameters
    from .curve.committed import COMMITTED_PATH, derive_constants, render_constants

    print("Verifying FourQ parameters (on-curve, order, primality)...")
    verify_parameters()
    print("  OK")
    print("Deriving and verifying endomorphisms (Velu isogenies)...")
    derived = derive_constants()
    endo = derived.endo
    print(f"  psi^2 = [8],   lambda_psi = {hex(endo.lambda_psi)}")
    print(f"  phi^2 = [-20], lambda_phi = {hex(endo.lambda_phi)}")
    print("  OK")
    print(f"Comparing the derivation with the committed {COMMITTED_PATH.name}...")
    if render_constants(derived) != COMMITTED_PATH.read_text():
        print("  MISMATCH: regenerate with `python -m repro derive --write`")
        return 1
    print("  OK (identical)")
    return 0


def cmd_derive(argv=()) -> int:
    import argparse

    from .curve.committed import COMMITTED_PATH, derive_constants, render_constants

    parser = argparse.ArgumentParser(
        prog="repro derive",
        description="Derive phi, psi and the decomposition basis from first "
                    "principles and print the generated constants module.",
    )
    parser.add_argument("--write", action="store_true",
                        help=f"write it to {COMMITTED_PATH.name} instead")
    args = parser.parse_args(argv)
    text = render_constants(derive_constants())
    if not args.write:
        print(text, end="")
        return 0
    COMMITTED_PATH.write_text(text)
    print(f"wrote {COMMITTED_PATH}")
    return 0


def cmd_table1() -> int:
    from .sched import cp_schedule, problem_from_trace
    from .trace import trace_loop_iteration

    prog = trace_loop_iteration()
    res = cp_schedule(problem_from_trace(prog.tracer.trace))
    print(res.schedule.summary())
    print()
    print(res.schedule.render_table())
    return 0


def cmd_keygen() -> int:
    from .dsa import fourq_dh

    kp = fourq_dh.generate_keypair()
    print("FourQ keypair (DO NOT use this demo output for real keys):")
    print(f"  private: {hex(kp.private)}")
    print(f"  public : {kp.public_bytes.hex()}")
    return 0


def _metrics_out_flag(parser) -> None:
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write the metrics registry as JSON to PATH "
                             "(+ Prometheus text alongside)")


def _bad_poison(args) -> bool:
    if 0.0 <= args.poison < 1.0:
        return False
    print("--poison must be in [0, 1)", file=sys.stderr)
    return True


def _front_door_flags(parser, n_help: str) -> None:
    """Flags ``serve`` and ``serve-net`` share: stream + front door."""
    from .serve import FrontendConfig

    defaults = FrontendConfig()
    add = parser.add_argument
    add("n", nargs="?", type=int, default=None, help=n_help)
    add("--max-batch", type=int, default=defaults.max_batch,
        help=f"most requests per flush (default {defaults.max_batch})")
    add("--max-wait-ms", type=float, default=defaults.max_wait_ms,
        help="bound in ms on the rejoin hold: how long a full batch may "
             "wait, after a flush that served several sources, for them "
             "to send again; it never delays a lone request "
             f"(default {defaults.max_wait_ms:g})")
    add("--policy", choices=("block", "reject", "shed"), default=defaults.policy,
        help=f"admission policy when the queue is full (default {defaults.policy})")
    add("--queue", type=int, default=defaults.max_queue,
        help=f"per-kind queue bound (default {defaults.max_queue})")
    add("--workers", type=int, default=defaults.workers,
        help="engine fan-out per flush (0 = serial)")
    add("--poison", type=float, default=0.0, metavar="R",
        help="ratio in [0, 1) of requests replaced by invalid DH material; "
             "with serve --verify, also the ratio of tampered signatures")
    add("--deadline-ms", type=float, default=None,
        help="end-to-end request deadline in ms (default: unbounded; "
             "a serve-net server clamps client budgets to it)")
    add("--seed", type=lambda s: int(s, 0), default=0x5EED)
    _metrics_out_flag(parser)


def _frontend_config(args, **extra):
    """The FrontendConfig the shared front-door flags describe."""
    from .serve import FrontendConfig

    return FrontendConfig(
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.queue,
        policy=args.policy,
        workers=args.workers,
        default_deadline_ms=args.deadline_ms,
        **extra,
    )


def _write_metrics(registry, path) -> int:
    """``--metrics-out``: export ``registry`` (JSON + Prometheus text)."""
    if not path:
        return 0
    from .obs import ExportSchemaError, write_exports

    try:
        json_path, prom_path = write_exports(registry.snapshot(), path)
    except ExportSchemaError as exc:
        print(f"FAIL: metrics export is schema-invalid: {exc}", file=sys.stderr)
        return 1
    print(f"metrics written  : {json_path} (+ {prom_path})")
    return 0


def _request_stream(n, seed, poison=0.0, verify=0.0, chaos=False):
    """The seeded demo stream: ``(requests, rng)``.

    ``requests`` holds ``(kind, payload, poisoned)`` triples — clean
    ``sm`` jobs, a ratio ``poison`` of invalid DH material, a ratio
    ``verify`` of Schnorr ``verify_msm`` jobs (``poison`` then also
    tampers that ratio of their messages), and with ``chaos`` every 4th
    request a worker kill or hang.  ``rng`` is returned so a caller can
    keep drawing (arrival times) from the same seeded stream.
    """
    import random

    from .curve.encoding import encode_point
    from .curve.point import AffinePoint
    from .dsa import fourq_dh, fourq_schnorr

    rng = random.Random(seed)
    generator = AffinePoint.generator()
    me = fourq_dh.generate_keypair(rng)
    signer_kps = (
        [fourq_schnorr.generate_keypair(rng) for _ in range(4)]
        if verify
        else []
    )
    requests = []
    for i in range(n):
        if chaos and i % 4 == 2:
            # Every 4th request is sabotage: a worker kill or a hang.
            mode = ("exit",) if (i // 4) % 2 == 0 else ("sleep", 3.0)
            requests.append(("fault", mode, False))
        elif verify and rng.random() < verify:
            kp = signer_kps[i % len(signer_kps)]
            msg = b"serve-msg-%d" % i
            sig = fourq_schnorr.sign(kp, msg)
            if poison and rng.random() < poison:
                # Tampered message: the signature no longer matches, so
                # this item must come back Ok(False) — a verdict, not a
                # Failed envelope (the fallback path's contract).
                msg += b"-tampered"
            requests.append(("verify_msm", (kp.public, msg, sig), False))
        elif poison and rng.random() < poison:
            bad = (encode_point(AffinePoint.identity())
                   if i % 2 == 0 else b"\xff" * 32)
            requests.append(("dh", (me.private, bad), True))
        else:
            requests.append(("sm", (rng.randrange(2**256), generator), False))
    return requests, rng


def _check_outcomes(requests, outcomes, wall, deadline_ms) -> int:
    """Report and self-check a demo run; return the exit code.

    Prints the outcome mix and streamed ops/s over ``wall`` seconds,
    then PASS or FAIL.  Every request must have resolved exactly once;
    every poisoned request failed as a typed envelope (and nothing else did); every
    ``verify_msm`` verdict matches the per-item reference verifier;
    chaos sabotage resolved as a marker or a typed failure; and the
    first 8 clean scalarmults match ``scalar_mul_fourq``.  With a
    deadline, a typed deadline failure is a legitimate outcome.
    """
    from .curve.scalarmult import scalar_mul_fourq
    from .dsa import fourq_schnorr
    from .serve import Failed

    ok = sum(1 for o in outcomes if not isinstance(o, Failed))
    kinds = Counter(o.kind for o in outcomes if isinstance(o, Failed))
    print(f"completed        : {len(outcomes)}/{len(requests)} ({ok} ok"
          + "".join(f", {k}={v}" for k, v in sorted(kinds.items())) + ")")
    print(f"wall time        : {wall * 1e3:.1f} ms")
    print(f"streamed ops/s   : {ok / wall:.2f}")
    if len(outcomes) != len(requests):
        print(f"FAIL: {len(requests)} requests but {len(outcomes)} outcomes",
              file=sys.stderr)
        return 1
    checked = mismatches = deadline_hits = verified = 0
    for (kind, payload, poisoned), outcome in zip(requests, outcomes):
        failed = isinstance(outcome, Failed)
        if failed and outcome.kind == "deadline" and deadline_ms:
            deadline_hits += 1
            continue
        if kind == "verify_msm":
            public, message, sig = payload
            if failed or outcome.value != fourq_schnorr.verify(
                public, message, sig
            ):
                mismatches += 1
            else:
                verified += 1
            continue
        if kind == "fault":
            if failed and outcome.kind not in (
                "deadline", "timeout", "worker_crash",
                "internal",
            ):
                mismatches += 1
            continue
        if poisoned != failed:
            mismatches += 1
        elif kind == "sm" and not failed and checked < 8:
            k, p = payload
            ref = scalar_mul_fourq(k, p)
            if (outcome.value.x, outcome.value.y) != (ref.x, ref.y):
                mismatches += 1
            checked += 1
    if mismatches:
        print(f"FAIL: {mismatches} outcome(s) diverged", file=sys.stderr)
        return 1
    print(f"PASS: outcomes verified ({checked} re-checked against the "
          f"math layer"
          + (f"; {verified} batch-MSM verdicts matched the reference "
             "verifier" if verified else "")
          + (f"; {deadline_hits} hit their deadline" if deadline_hits else "")
          + ")")
    return 0


def cmd_serve(argv=()) -> int:
    """Demo-drive the asyncio front door under Poisson arrivals.

    ``serve [N]`` submits N individual scalar-multiplication requests
    (default 64) through :class:`repro.serve.frontend.Frontend` with
    exponential inter-arrival times at ``--rate`` requests/s (0 = as
    fast as the loop can submit, the saturation case), then prints the
    front door's serving report: flush mix, batch-size distribution,
    time-to-flush and end-to-end latency quantiles, and admission
    outcomes.  ``--poison R`` turns a ratio R of the stream into
    invalid DH requests to show streamed per-item isolation.
    ``--verify R`` turns a ratio R of the stream into Schnorr
    ``verify_msm`` requests — the coalescer groups them per flush and
    the engine resolves each group with one randomized multi-scalar
    multiplication; combined with ``--poison``, a slice of those
    signatures is tampered and must come back ``Ok(False)`` while the
    honest ones stay ``Ok(True)``.

    ``--deadline-ms`` bounds every request end-to-end (expired requests
    resolve with a typed ``deadline`` failure instead of executing
    late); ``--retries`` sets the engine's transient-chunk retry
    budget; ``--chaos`` turns a slice of the stream into worker kills
    and hangs (forcing ``workers>=2``) to demo the supervised pool,
    retry ladder, and circuit breaker end to end — the run still exits
    zero as long as every request resolves exactly once with ``Ok`` or
    a typed ``Failed``.

    The engine and the front door record into one registry owned by
    this command; its report is printed after the run.  ``--smoke``
    shrinks the run for CI (N=8); ``--metrics-out PATH`` exports that
    registry (JSON + Prometheus) afterwards.
    A sample of results is re-checked against the math layer; any
    mismatch exits non-zero.
    """
    import argparse
    import asyncio
    import random
    import time

    parser = argparse.ArgumentParser(prog="repro serve")
    _front_door_flags(parser, "requests to stream (default 64; 8 with --smoke)")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="Poisson arrival rate in req/s "
                             "(0 = saturation: submit as fast as possible)")
    parser.add_argument("--verify", type=float, default=0.0, metavar="R",
                        help="ratio in [0, 1] of requests submitted as "
                             "Schnorr verify_msm jobs (grouped per flush "
                             "into one randomized MSM)")
    parser.add_argument("--retries", type=int, default=None,
                        help="pool executions a transient chunk fault may "
                             "consume before serial recovery (default: "
                             "engine default, 3)")
    parser.add_argument("--chaos", action="store_true",
                        help="inject worker kills and hangs into the "
                             "stream (forces workers>=2) to exercise the "
                             "fault-tolerance layer")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized run (N=8)")
    args = parser.parse_args(list(argv))
    if args.n is None:
        args.n = 8 if args.smoke else 64
    if _bad_poison(args):
        return 2
    if not 0.0 <= args.verify <= 1.0:
        print("--verify must be in [0, 1]", file=sys.stderr)
        return 2
    if args.retries is not None and args.retries < 1:
        print("--retries must be >= 1", file=sys.stderr)
        return 2
    if args.chaos:
        args.workers = max(args.workers, 2)

    from .obs import MetricsRegistry, render_report
    from .serve import BatchEngine, Failed, Frontend, FrontendConfig, Overloaded, RetryPolicy

    requests, rng = _request_stream(args.n, args.seed, args.poison,
                                    args.verify, args.chaos)
    delays, t = [], 0.0
    for _ in requests:
        t += rng.expovariate(args.rate) if args.rate > 0 else 0.0
        delays.append(t)

    print(f"Warming the engine (one-time curve artifacts + first flow)...")
    engine_kwargs = {}
    if args.retries is not None:
        engine_kwargs["retry_policy"] = RetryPolicy(max_attempts=args.retries)
    if args.chaos:
        # Short chunk budget so injected hangs convert to restarts in
        # demo time; seeded retry jitter keeps the run reproducible.
        engine_kwargs["chunk_timeout"] = 1.0
        engine_kwargs["retry_rng"] = random.Random(args.seed ^ 0xC4A05)
    registry = MetricsRegistry()
    engine = BatchEngine(metrics=registry, **engine_kwargs)
    engine.warm()

    arrival = ("saturation (no pacing)" if args.rate <= 0
               else f"Poisson at {args.rate:g} req/s")
    print(f"Streaming {args.n} requests, {arrival}; "
          f"max_batch={args.max_batch}, max_wait={args.max_wait_ms:g} ms, "
          f"policy={args.policy}"
          + (f", poison={args.poison:g}" if args.poison else "")
          + (f", verify={args.verify:g}" if args.verify else "")
          + (f", deadline={args.deadline_ms:g} ms" if args.deadline_ms else "")
          + (", CHAOS" if args.chaos else "") + "...")

    async def driver():
        # Under chaos even a tiny fault-lane flush must fan out, or the
        # sabotage degrades to the serial path and never touches the
        # pool it is meant to break.
        fe = Frontend(engine, metrics=registry, config=_frontend_config(
            args, min_chunk=1 if args.chaos else FrontendConfig().min_chunk
        ))

        async def client(kind, payload, delay):
            await asyncio.sleep(delay)
            try:
                return await fe.submit_outcome(kind, payload)
            except Overloaded as exc:
                return Failed(kind="overloaded", message=str(exc))

        t0 = time.perf_counter()
        outcomes = await asyncio.gather(
            *[client(kind, payload, delay)
              for (kind, payload, _), delay in zip(requests, delays)]
        )
        wall = time.perf_counter() - t0
        await fe.aclose()
        return outcomes, wall

    outcomes, wall = asyncio.run(driver())

    print()
    print(render_report(registry.snapshot()))
    rc = _check_outcomes(requests, outcomes, wall, args.deadline_ms)
    engine.close()
    return rc or _write_metrics(registry, args.metrics_out)


def cmd_serve_net(argv=()) -> int:
    """The TCP front door: server, load-driving client, or e2e smoke.

    **Server** (default): warm a real engine, own a Frontend, and serve
    the framed protocol until SIGTERM/SIGINT (graceful GOAWAY drain) or
    ``--serve-for`` seconds elapse.  ``--port 0`` binds an ephemeral
    port; the bound port is printed and, with ``--port-file``, written
    atomically for orchestration.

    **Client** (``--connect HOST:PORT [N]``): stream N requests across
    ``--clients`` concurrent connections, re-check a sample of results
    against the math layer, and report aggregate throughput.
    ``--poison R`` injects invalid DH requests that must come back as
    typed failures; ``--deadline-ms`` attaches a relative budget to
    every request.

    **Smoke** (``--smoke``): the CI end-to-end — spawn the server as a
    real second process on an ephemeral port, drive the client path
    against it, then SIGTERM it and require a clean graceful-drain
    exit.  ``--metrics-out PATH`` is forwarded to the server process,
    which exports its registry (the ``repro_net_*`` series) on drain.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="repro serve-net")
    _front_door_flags(parser, "client mode: requests to stream "
                              "(default 32; 12 with --smoke)")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="run as a client against a serving instance")
    parser.add_argument("--host", default="127.0.0.1",
                        help="server bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=0,
                        help="server bind port (default 0 = ephemeral)")
    parser.add_argument("--port-file", metavar="PATH", default=None,
                        help="server mode: write the bound port to PATH "
                             "(atomically) once accepting")
    parser.add_argument("--serve-for", type=float, default=None,
                        help="server mode: drain and exit after this many "
                             "seconds (default: until SIGTERM)")
    parser.add_argument("--clients", type=int, default=4,
                        help="client mode: concurrent connections "
                             "(default 4)")
    parser.add_argument("--max-inflight", type=int, default=32,
                        help="server mode: per-connection outstanding cap")
    parser.add_argument("--smoke", action="store_true",
                        help="two-process end-to-end smoke (CI)")
    args = parser.parse_args(list(argv))
    if _bad_poison(args):
        return 2
    if args.clients < 1:
        print("--clients must be >= 1", file=sys.stderr)
        return 2
    if args.smoke:
        return _serve_net_smoke(args)
    from .obs import MetricsRegistry

    registry = MetricsRegistry()
    if args.connect is not None:
        if args.n is None:
            args.n = 32
        rc = _serve_net_client(args)
    else:
        rc = _serve_net_server(args, registry)
    return rc or _write_metrics(registry, args.metrics_out)


def _serve_net_server(args, registry) -> int:
    """``serve-net`` server mode (blocking until drain completes)."""
    import asyncio
    import os

    from .obs import render_report
    from .serve import BatchEngine
    from .serve.net import NetServer, NetServerConfig

    print("Warming the engine (one-time curve artifacts + first flow)...",
          flush=True)
    engine = BatchEngine(metrics=registry)
    engine.warm()
    server = NetServer(
        engine=engine,
        metrics=registry,
        frontend_config=_frontend_config(args),
        config=NetServerConfig(
            host=args.host,
            port=args.port,
            max_inflight_per_conn=args.max_inflight,
        ),
    )

    async def run() -> None:
        await server.start()
        server.install_signal_handlers()
        print(f"serving on {args.host}:{server.port} "
              f"(SIGTERM drains gracefully)", flush=True)
        if args.port_file:
            # Atomic write: pollers never read a half-written port.
            tmp = f"{args.port_file}.tmp"
            with open(tmp, "w") as fh:
                fh.write(str(server.port))
            os.replace(tmp, args.port_file)
        if args.serve_for is not None:
            try:
                await asyncio.wait_for(
                    server.serve_until_closed(), timeout=args.serve_for
                )
            except asyncio.TimeoutError:
                await server.aclose()
        else:
            await server.serve_until_closed()

    try:
        asyncio.run(run())
    finally:
        engine.close()
    print()
    print(render_report(registry.snapshot()))
    print("drained cleanly")
    return 0


def _serve_net_client(args) -> int:
    """``serve-net --connect`` client mode: drive, self-check, report."""
    import asyncio
    import time

    from .serve.net import NetClient

    host, _, port_s = args.connect.rpartition(":")
    try:
        port = int(port_s)
    except ValueError:
        print(f"--connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    host = host or "127.0.0.1"

    requests, _ = _request_stream(args.n, args.seed, args.poison)
    deadline = args.deadline_ms / 1000.0 if args.deadline_ms else None
    print(f"Streaming {args.n} requests over {args.clients} TCP "
          f"connection(s) to {host}:{port}"
          + (f", poison={args.poison:g}" if args.poison else "")
          + (f", deadline={args.deadline_ms:g} ms" if args.deadline_ms
             else "") + "...")

    async def drive():
        clients = [
            await NetClient.connect(host, port,
                                    client_name=f"repro-cli-{i}")
            for i in range(args.clients)
        ]
        try:
            t0 = time.perf_counter()
            outcomes = await asyncio.gather(*[
                clients[i % len(clients)].submit_outcome(
                    kind, payload, deadline=deadline
                )
                for i, (kind, payload, _) in enumerate(requests)
            ])
            wall = time.perf_counter() - t0
        finally:
            for c in clients:
                await c.aclose()
        return outcomes, wall

    outcomes, wall = asyncio.run(asyncio.wait_for(drive(), timeout=600))
    return _check_outcomes(requests, outcomes, wall, args.deadline_ms)


def _serve_net_smoke(args) -> int:
    """``serve-net --smoke``: spawn a real server process, drive it,
    SIGTERM it, and require a graceful exit — the CI end-to-end."""
    import argparse
    import os
    import signal
    import subprocess
    import tempfile
    import time

    n = args.n if args.n is not None else 12
    with tempfile.TemporaryDirectory(prefix="repro-net-smoke-") as tmp:
        port_file = os.path.join(tmp, "port")
        cmd = [
            sys.executable, "-m", "repro", "serve-net",
            "--port", "0", "--port-file", port_file,
            "--serve-for", "600",
            "--max-batch", str(args.max_batch),
            "--max-wait-ms", str(args.max_wait_ms),
        ]
        if args.metrics_out:
            # The server process owns the interesting registry (the
            # repro_net_* series live there, not in this driver), so
            # the export is written by the server on drain.
            cmd += ["--metrics-out", args.metrics_out]
        print(f"smoke: spawning server: {' '.join(cmd)}", flush=True)
        proc = subprocess.Popen(cmd)
        try:
            deadline = time.monotonic() + 180  # engine warm included
            while not os.path.exists(port_file):
                if proc.poll() is not None:
                    print(f"FAIL: server exited early "
                          f"(rc={proc.returncode})", file=sys.stderr)
                    return 1
                if time.monotonic() > deadline:
                    print("FAIL: server never published its port",
                          file=sys.stderr)
                    return 1
                time.sleep(0.1)
            with open(port_file) as fh:
                port = int(fh.read().strip())
            print(f"smoke: server is up on port {port}", flush=True)

            rc = _serve_net_client(argparse.Namespace(
                **{**vars(args), "connect": f"127.0.0.1:{port}", "n": n}
            ))
            if rc != 0:
                return rc

            print("smoke: SIGTERM -> graceful drain...", flush=True)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
            if rc != 0:
                print(f"FAIL: server exited {rc} after SIGTERM",
                      file=sys.stderr)
                return 1
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
    if args.metrics_out and not os.path.exists(args.metrics_out):
        print(f"FAIL: server never wrote {args.metrics_out}",
              file=sys.stderr)
        return 1
    print("smoke: PASS (served, verified, drained, exited 0)")
    return 0


def cmd_metrics(argv=()) -> int:
    """Validate or render a metrics export, or produce one live.

    ``metrics PATH`` validates the JSON export at PATH and prints the
    derived observability report; ``--check`` validates only (exit 1 on
    schema violations — the CI gate).  With no PATH, a small
    instrumented workload runs in-process and its report is printed.
    """
    import argparse
    import json

    parser = argparse.ArgumentParser(prog="repro metrics")
    parser.add_argument("path", nargs="?", default=None,
                        help="metrics JSON export to validate/render "
                             "(omit to run a small live workload)")
    parser.add_argument("--check", action="store_true",
                        help="validate the schema only; exit 1 on errors")
    args = parser.parse_args(list(argv))

    from .obs import MetricsRegistry, render_report, validate_export

    if args.path is not None:
        try:
            with open(args.path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read {args.path}: {exc}", file=sys.stderr)
            return 1
        errors = validate_export(doc)
        if errors:
            print(f"FAIL: {len(errors)} schema violation(s):", file=sys.stderr)
            for err in errors:
                print(f"  - {err}", file=sys.stderr)
            return 1
        if args.check:
            print(f"OK: {args.path} is a valid {doc.get('schema')} export")
            return 0
        print(render_report(doc))
        return 0

    # No file: run a tiny instrumented workload against a private
    # registry so the report reflects exactly this run.
    from .serve import BatchEngine

    registry = MetricsRegistry()
    engine = BatchEngine(metrics=registry)
    engine.warm()
    engine.batch_scalarmult([3, 5, 7, 9])
    print(render_report(registry.snapshot()))
    return 0


COMMANDS = {
    "summary": cmd_summary,
    "verify": cmd_verify,
    "derive": cmd_derive,
    "table1": cmd_table1,
    "keygen": cmd_keygen,
    "serve": cmd_serve,
    "serve-net": cmd_serve_net,
    "metrics": cmd_metrics,
}

#: Commands that parse their own trailing arguments.
ARG_COMMANDS = {"derive", "serve", "serve-net", "metrics"}

#: One-line help per command, rendered by ``--help`` (and asserted
#: in-sync with COMMANDS by tests/test_cli.py).
COMMAND_HELP = {
    "summary": "full design flow + chip datasheet (default)",
    "verify": "parameter and endomorphism self-verification",
    "derive": "print (or --write) the generated curve-constants module",
    "table1": "CP-optimal loop-kernel schedule",
    "keygen": "demo FourQ keypair",
    "serve": "in-process continuous-batching front door demo",
    "serve-net": "TCP front door: server / client / e2e smoke",
    "metrics": "validate or render a metrics export",
}


def _usage() -> str:
    lines = ["usage: repro [--version] [--help] COMMAND [ARGS...]", "",
             "commands:"]
    for name in COMMANDS:
        lines.append(f"  {name:<12} {COMMAND_HELP[name]}")
    lines.append("")
    lines.append("commands taking ARGS support their own --help "
                 f"({', '.join(sorted(ARG_COMMANDS))})")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else "summary"
    if name in ("--version", "-V"):
        from . import __version__

        print(f"repro {__version__}")
        return 0
    if name in ("--help", "-h", "help"):
        print(_usage())
        return 0
    cmd = COMMANDS.get(name)
    if cmd is None:
        print(f"unknown command {name!r}; choose from "
              f"{', '.join(COMMANDS)}", file=sys.stderr)
        return 2
    if name in ARG_COMMANDS:
        return cmd(argv[1:])
    return cmd()


if __name__ == "__main__":
    raise SystemExit(main())
