"""net_open's server process, built from the public serving API only.

    python3 benchmarks/ledger/server.py --trace 0|1 --spans PATH

Reads one JSON line of warm-up inputs on stdin, builds
``BatchEngine`` -> ``NetServer`` (which owns a ``Frontend`` with
``FrontendConfig()`` defaults), warms the engine with one request of
each kind the workload sends, prints ``PORT <n>`` once it listens, and
serves until stdin reaches end of file.  It then drains, and prints one
JSON line: the datapath counters recorded while serving, its own peak
RSS, and (traced) the span wrappers' counts; the spans themselves go to
``--spans``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

import inputs as gen
import spans as spanlib
from workloads import datapath_delta, peak_rss_mb


def warm(engine, doc) -> None:
    engine.warm()
    engine.batch_dh(doc["dh_private"], [bytes.fromhex(doc["dh_peer"])], strict=True)
    v = doc["verify"]
    item = (gen.dec_point(v["public"]), bytes.fromhex(v["message"]), gen.dec_sig(v["sig"]))
    if engine.batch_verify([item], mode="simulate", strict=True)[0] is not True:
        raise RuntimeError("warm-up signature did not verify")


async def serve(engine, registry, trace: bool, spans_path: str) -> dict:
    from repro.serve import FrontendConfig, NetServer, NetServerConfig

    rec = spanlib.Recorder() if trace else None
    wrappers = spanlib.Wrappers(rec) if trace else None
    before = registry.snapshot()
    server = NetServer(
        engine=engine, frontend_config=FrontendConfig(),
        config=NetServerConfig(port=0), metrics=registry,
    )
    await server.start()
    if wrappers is not None:
        wrappers.install()
    print(f"PORT {server.port}", flush=True)
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.read)
    await server.aclose()
    if wrappers is not None:
        wrappers.uninstall()
        rec.dump(spans_path)
    return {
        "counters": datapath_delta(before, registry.snapshot()),
        "rss_mb": peak_rss_mb(),
        "counts": dict(rec.counts) if rec else {},
        "absent": wrappers.absent if wrappers else [],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default="-")
    args = ap.parse_args(argv)
    doc = json.loads(sys.stdin.readline())
    from repro.obs import MetricsRegistry
    from repro.serve import BatchEngine

    registry = MetricsRegistry()
    engine = BatchEngine(metrics=registry)
    try:
        warm(engine, doc)
        report = asyncio.run(serve(engine, registry, bool(args.trace), args.spans))
    finally:
        engine.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
