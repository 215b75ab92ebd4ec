"""Deterministic seed derivation.

All randomness flows from numpy's default_rng (PCG64). Named sub-streams are
derived by mixing a root seed with crc32 hashes of string tags through
SeedSequence, so every consumer (dataset, init, task draws, per-cell test
data) gets an independent, reproducible stream that is stable across runs,
platforms, and process boundaries.
"""

import zlib

import numpy as np


def subseed(root, *tags):
    """SeedSequence for a named sub-stream of a root seed in [0, 2**32 - 1]."""
    if not 0 <= int(root) <= 0xFFFFFFFF:
        raise ValueError(f"must be in [0, {0xFFFFFFFF}], got {root}")
    parts = [int(root)] + [
        zlib.crc32(str(t).encode("utf-8")) for t in tags
    ]
    return np.random.SeedSequence(parts)


def rng_for(root, *tags):
    """Generator (PCG64) for a named sub-stream of the root seed."""
    return np.random.default_rng(subseed(root, *tags))
