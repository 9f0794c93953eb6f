"""Seeded input generation for the ledger workloads.

Runs in its own process (``workloads.py gen``) and hands the inputs to
the measuring process as JSON, so the program under test only ever sees
generated data.  Everything derives from ``random.Random`` seeded with
the workload name and ``--seed``: the same seed gives byte-identical
inputs.  Points travel as ``[[x0, x1], [y0, y1]]``, byte strings as hex.
The harness keeps what it needs for checking (known verdicts, the
signers' challenges) beside the inputs; the program is never handed it.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

#: Pool sizing: the most rounds per second any host is expected to
#: reach; a measuring loop that exhausts its pool ends early.
SM_HOT_MAX_OPS_S = 100
VERIFY_MAX_ROUNDS_S = 2.8
COLD_MAX_ROUNDS_S = 3.0

#: Closed loops run at least this many timed requests, so the p90 has
#: ten samples beyond it.
MIN_OPS = 100

#: verify_batch: signers, items per batch, batches per round (the last
#: batch of each round carries one forged signature).
VERIFY_SIGNERS = 8
VERIFY_BATCH = 8
VERIFY_ROUND = 4

#: net_open: Poisson arrival rate (about a fifth of the serial capacity:
#: lower queueing keeps host-speed swings from being amplified), the
#: minimum request count (96 gives the p90 ten samples beyond it), and
#: connections.
NET_RATE = 4.0
NET_MIN_REQUESTS = 96
NET_CONNECTIONS = 2
NET_POINTS = 256

#: cold_compile shapes, cycled in this order.
COLD_SHAPES = ("sm_list", "sm_cp_full", "double_base", "msm_window", "table1_cp")


def enc_point(p):
    return [list(p.x), list(p.y)]


def dec_point(v):
    from repro.curve.point import AffinePoint

    return AffinePoint(tuple(v[0]), tuple(v[1]))


def enc_sig(sig):
    return [list(sig.commit_x), list(sig.commit_y), sig.s]


def dec_sig(v):
    from repro.dsa.fourq_schnorr import SchnorrSignature

    return SchnorrSignature(commit_x=tuple(v[0]), commit_y=tuple(v[1]), s=v[2])


def digest(inputs: dict) -> str:
    """Stable digest of a generated input document."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _signers(rng):
    from repro.dsa import fourq_schnorr

    return [fourq_schnorr.generate_keypair(rng) for _ in range(VERIFY_SIGNERS)]


def _signed_item(rng, keys, signer: int, label: str, forged: bool):
    """One (public, message, signature) item plus its known answer.

    ``e`` is the challenge the signer used, recovered from s = k + e*d;
    the textbook check confirms [s]G == R + [e]Q for honest items.  A
    forgery is the honest signature over a different message, so the
    known answer is False and no vetting shortcut applies.
    """
    from repro.curve.params import SUBGROUP_ORDER_N as N
    from repro.dsa import fourq_schnorr

    key = keys[signer]
    message = f"{label}:{rng.getrandbits(64):016x}".encode()
    nonce = rng.randrange(1, N)
    sig = fourq_schnorr.sign(key, message, nonce=nonce)
    e = (sig.s - nonce) * pow(key.private, -1, N) % N
    if forged:
        message += b"!"
    return {
        "signer": signer, "message": message.hex(), "sig": enc_sig(sig),
        "expect": not forged, "e": e,
    }


def gen_sm_hot(rng, seconds: float, smoke: bool) -> dict:
    from repro.curve.params import SUBGROUP_ORDER_N as N
    from repro.curve.point import AffinePoint, random_subgroup_point

    pool = [AffinePoint.generator()] + [random_subgroup_point(rng) for _ in range(15)]
    n = 16 * math.ceil(max(seconds * SM_HOT_MAX_OPS_S, MIN_OPS) / 16)
    return {
        "pool": [enc_point(p) for p in pool],
        "requests": [[rng.randrange(1, N), rng.randrange(16)] for _ in range(n)],
    }


def gen_verify_batch(rng, seconds: float, smoke: bool) -> dict:
    keys = _signers(rng)
    rounds = 1 + math.ceil(
        max(seconds * VERIFY_MAX_ROUNDS_S, 0 if smoke else MIN_OPS / VERIFY_ROUND + 1)
    )
    batches = []
    for b in range(rounds * VERIFY_ROUND):
        forged = rng.randrange(VERIFY_BATCH) if b % VERIFY_ROUND == VERIFY_ROUND - 1 else -1
        signers = list(range(VERIFY_SIGNERS))
        rng.shuffle(signers)
        batches.append([
            _signed_item(rng, keys, s, f"vb{b}.{i}", forged=(i == forged))
            for i, s in enumerate(signers[:VERIFY_BATCH])
        ])
    return {"publics": [enc_point(k.public) for k in keys], "batches": batches}


def gen_net_open(rng, seconds: float, smoke: bool) -> dict:
    from repro.curve.params import SUBGROUP_ORDER_N as N
    from repro.curve.point import random_subgroup_point
    from repro.dsa import fourq_dh

    n = 16 if smoke else max(NET_MIN_REQUESTS, 16 * math.ceil(NET_RATE * seconds / 16))
    kinds = ["sm"] * (n // 2) + ["dh"] * (n // 4) + ["verify"] * (n // 4)
    rng.shuffle(kinds)
    verify_slots = [i for i, k in enumerate(kinds) if k == "verify"]
    forged = set(rng.sample(verify_slots, max(1, len(verify_slots) // 16)))
    arrivals = sorted(rng.uniform(0, n / NET_RATE) for _ in range(n))
    keys = _signers(rng)
    dh_private = rng.randrange(1, N)
    points = {}

    def base_point(idx):
        if idx not in points:
            points[idx] = enc_point(random_subgroup_point(random.Random(f"net-pt:{idx}")))
        return points[idx]

    requests = []
    for i, kind in enumerate(kinds):
        req = {"kind": kind, "at": arrivals[i], "conn": i % NET_CONNECTIONS}
        if kind == "sm":
            req["k"] = rng.randrange(1, N)
            req["point"] = base_point(rng.randrange(NET_POINTS))
        elif kind == "dh":
            req["peer"] = fourq_dh.generate_keypair(rng).public_bytes.hex()
        else:
            req.update(_signed_item(rng, keys, rng.randrange(VERIFY_SIGNERS),
                                    f"net{i}", forged=i in forged))
        requests.append(req)
    warm_verify = _signed_item(rng, keys, 0, "warm", forged=False)
    warm_verify["public"] = enc_point(keys[0].public)
    return {
        "publics": [enc_point(k.public) for k in keys],
        "dh_private": dh_private,
        "requests": requests,
        # One request of each kind the server has not yet compiled,
        # served before it starts listening.
        "warmup": {
            "dh_private": dh_private,
            "dh_peer": fourq_dh.generate_keypair(rng).public_bytes.hex(),
            "verify": warm_verify,
        },
    }


def gen_cold_compile(rng, seconds: float, smoke: bool) -> dict:
    from repro.curve.params import SUBGROUP_ORDER_N as N
    from repro.curve.point import AffinePoint, random_subgroup_point

    pool = [AffinePoint.generator()] + [random_subgroup_point(rng) for _ in range(7)]
    rounds = 1 + math.ceil(
        max(seconds * COLD_MAX_ROUNDS_S, 0 if smoke else MIN_OPS / len(COLD_SHAPES))
    )
    flows = []
    for _ in range(rounds):
        for shape in COLD_SHAPES:
            flow = {"shape": shape}
            if shape in ("sm_list", "sm_cp_full"):
                flow.update(k=rng.randrange(1, N), point=rng.randrange(len(pool)))
            elif shape == "double_base":
                flow.update(u1=rng.randrange(1, N), u2=rng.randrange(1, N),
                            point=rng.randrange(len(pool)))
            else:
                flow["rng"] = rng.getrandbits(32)
            flows.append(flow)
    return {"pool": [enc_point(p) for p in pool], "flows": flows}


GENERATORS = {
    "sm_hot": gen_sm_hot,
    "verify_batch": gen_verify_batch,
    "net_open": gen_net_open,
    "cold_compile": gen_cold_compile,
}


def generate(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    rng = random.Random(f"ledger:{workload}:{seed}")
    return GENERATORS[workload](rng, seconds, smoke)
