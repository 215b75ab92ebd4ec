"""Seed derivation: the root seed is a 32-bit integer, used as given.

Oracle: subseed(root, *tags) is the SeedSequence of [root, crc32(tag)...],
so its state can be recomputed from numpy and zlib alone.
"""

import zlib

import numpy as np
import pytest

from metabeam.seeding import rng_for, subseed


@pytest.mark.parametrize("root", [0, 1, 12345, 2**32 - 1])
def test_in_range_root_keeps_its_bits(root):
    want = np.random.SeedSequence([root, zlib.crc32(b"test"), zlib.crc32(b"3")])
    assert (subseed(root, "test", 3).generate_state(8) == want.generate_state(8)).all()


@pytest.mark.parametrize("root", [-1, 2**32, 2**32 + 1])
def test_root_outside_32_bits_raises(root):
    # masked to 32 bits, 2**32 + 1 ran as root 1 and -1 as 2**32 - 1
    with pytest.raises(ValueError, match=rf"must be in \[0, 4294967295\], got {root}$"):
        subseed(root, "dataset")
    with pytest.raises(ValueError):
        rng_for(root, "dataset")
