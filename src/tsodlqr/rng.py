"""Deterministic random streams and stable seed derivation.

Gaussian draws come from numpy's PCG64 generator (ziggurat normal sampling),
so a fixed (seed, stream_id) pair reproduces the same sequence bit-exactly on
any platform running the same numpy build.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def hash64(*parts) -> int:
    """Stable 64-bit hash of the given parts.

    Independent of process state (no reliance on Python's randomized hash),
    so derived seeds are reproducible across runs and machines.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


class RngStream(np.random.Generator):
    """A seeded PCG64 generator; identical (seed, stream_id) reproduce identical draws."""

    def __init__(self, seed: int, stream_id: int = 0):
        ss = np.random.SeedSequence(entropy=seed & _MASK64, spawn_key=(stream_id & _MASK64,))
        super().__init__(np.random.PCG64(ss))
