"""SHA-256 (FIPS 180-4) over :mod:`hashlib`.

The ECDSA flow of the paper's application context (ITS message
authentication) hashes every message; :mod:`repro.dsa` hashes through
these three names, and the test suite checks them against the FIPS
test vectors.
"""

from __future__ import annotations

import hashlib


def sha256(message: bytes) -> bytes:
    """Digest of ``message`` (one-shot)."""
    return hashlib.sha256(message).digest()


def sha256_hex(message: bytes) -> str:
    """Hex digest convenience wrapper."""
    return sha256(message).hex()


def sha256_int(message: bytes) -> int:
    """Digest as a big-endian integer (what ECDSA consumes)."""
    return int.from_bytes(sha256(message), "big")
