"""Schnorr signatures over FourQ: the accelerated curve doing DSA work.

The paper's motivation is message authentication for intelligent
transportation systems; its chip accelerates the scalar multiplication
inside signature schemes.  This module provides a complete Schnorr
scheme over FourQ (the natural signature for an Edwards-type curve,
EdDSA-style with deterministic nonces), so the examples can demonstrate
the full sign/verify path running on the reproduced Algorithm 1.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Optional, Tuple

from ..curve.multiscalar import validate_verify_item
from ..curve.params import SUBGROUP_ORDER_N
from ..curve.point import AffinePoint
from ..curve.scalarmult import scalar_mul_fourq
from ..hashes.sha256 import sha256, sha256_int


@dataclass(frozen=True)
class SchnorrKeyPair:
    private: int
    public: AffinePoint


@dataclass(frozen=True)
class SchnorrSignature:
    commit_x: Tuple[int, int]  # x-coordinate of the commitment R
    commit_y: Tuple[int, int]
    s: int


def _encode_point(pt: AffinePoint) -> bytes:
    return b"".join(
        v.to_bytes(16, "big") for v in (pt.x[0], pt.x[1], pt.y[0], pt.y[1])
    )


def generate_keypair(rng=None) -> SchnorrKeyPair:
    """d in [1, N-1], Q = [d]G via the accelerated Algorithm 1."""
    if rng:
        d = rng.randrange(1, SUBGROUP_ORDER_N)
    else:
        d = secrets.randbelow(SUBGROUP_ORDER_N - 1) + 1
    q = scalar_mul_fourq(d, AffinePoint.generator())
    return SchnorrKeyPair(private=d, public=q)


def _challenge(commit: AffinePoint, public: AffinePoint, message: bytes) -> int:
    return (
        sha256_int(_encode_point(commit) + _encode_point(public) + message)
        % SUBGROUP_ORDER_N
    )


def sign(key: SchnorrKeyPair, message: bytes, nonce: Optional[int] = None) -> SchnorrSignature:
    """Schnorr signing: R = [k]G, e = H(R || Q || m), s = k + e d."""
    if nonce is None:
        nonce = (
            sha256_int(key.private.to_bytes(32, "big") + sha256(message))
            % SUBGROUP_ORDER_N
        )
        if nonce == 0:
            nonce = 1
    k = nonce % SUBGROUP_ORDER_N
    if k == 0:
        raise ValueError("nonce reduces to zero")
    commit = scalar_mul_fourq(k, AffinePoint.generator())
    e = _challenge(commit, key.public, message)
    s = (k + e * key.private) % SUBGROUP_ORDER_N
    return SchnorrSignature(commit_x=commit.x, commit_y=commit.y, s=s)


def verify(public: AffinePoint, message: bytes, sig: SchnorrSignature) -> bool:
    """Check [s]G - [e]Q == R with one double-base multiplication.

    Uses the Straus-Shamir double-scalar multiplication
    (:func:`repro.curve.scalarmult.scalar_mul_double_base`) — the shape
    the paper's Section II-A verification step 4 computes — so a
    verification costs one shared 64-iteration loop instead of two
    separate scalar multiplications.  A signature outside the domain of
    :func:`repro.curve.multiscalar.validate_verify_item` verifies
    ``False``: the endomorphism decomposition is wrong there, and could
    accept a signature the textbook equation rejects.
    """
    from ..curve.scalarmult import scalar_mul_double_base

    commit = validate_verify_item(public, sig)
    if commit is None:
        return False
    e = _challenge(commit, public, message)
    lhs = scalar_mul_double_base(
        sig.s, SUBGROUP_ORDER_N - e, AffinePoint.generator(), public
    )
    return lhs == commit
