"""Hash functions (SHA-256, FIPS 180-4, over :mod:`hashlib`)."""

from .sha256 import sha256, sha256_hex, sha256_int

__all__ = ["sha256", "sha256_hex", "sha256_int"]
