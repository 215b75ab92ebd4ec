"""Channel generation: Rayleigh, Rician and Nakagami-m fading.

A channel realization is a (K, N) complex128 array, one row per user. Batches
stack realizations along axis 0, shape (count, K, N). All families are
normalized to unit average entry power E|h|^2 = 1.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

DATASET_MAGIC = b"MMLC1"
_HEADER = struct.Struct("<5sIII")  # magic, N, K, count (little-endian u32)
_MAX_ENTRIES = 1 << 28  # refuse absurd allocations from corrupt headers


# The one parameter each family reads (None: it reads none).
FAMILY_PARAM = {"rayleigh": None, "rician": "kappa", "nakagami": "m"}


@dataclass(frozen=True)
class ChannelModelSpec:
    """A named fading family plus its parameters.

    family: "rayleigh" | "rician" | "nakagami".
    kappa: Rician K-factor (line-of-sight to scattered power ratio).
    m: Nakagami shape; m=1 reduces to Rayleigh, large m approaches AWGN.
    """

    family: str
    kappa: float = 3.0
    m: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILY_PARAM:
            raise ValueError(f"unknown channel family {self.family!r}")
        if self.family == "rician" and not 0 <= self.kappa < np.inf:
            raise ValueError(f"kappa must be finite and nonnegative, got {self.kappa}")
        if self.family == "nakagami" and not 0 < self.m < np.inf:
            raise ValueError(f"m must be finite and positive, got {self.m}")


@dataclass
class Task:
    """A meta-learning task: disjoint support and query channel batches."""

    support: np.ndarray  # (n_s, K, N) complex128
    query: np.ndarray  # (n_q, K, N) complex128


def sample_rayleigh(rng, count, n, k):
    """count i.i.d. CN(0, I) realizations, shape (count, K, N)."""
    re = rng.standard_normal((count, k, n))
    im = rng.standard_normal((count, k, n))
    return (re + 1j * im) / np.sqrt(2.0)


def sample_rician(rng, count, n, k, kappa):
    """Rician fading: deterministic unit line-of-sight plus scattered part.

    h = sqrt(kappa/(kappa+1)) * 1 + sqrt(1/(kappa+1)) * g with g ~ CN(0, I),
    so E|h|^2 = 1 for every kappa; kappa = 0 reduces to Rayleigh.
    """
    g = sample_rayleigh(rng, count, n, k)
    return np.sqrt(kappa / (kappa + 1.0)) + np.sqrt(1.0 / (kappa + 1.0)) * g


def sample_nakagami(rng, count, n, k, m):
    """Nakagami-m amplitude with uniform phase, unit spread (Omega = 1).

    The squared envelope is Gamma(m, 1/m), so E r^2 = 1 and Var r^2 = 1/m;
    m = 1 coincides with the Rayleigh envelope.
    """
    r = np.sqrt(rng.gamma(shape=m, scale=1.0 / m, size=(count, k, n)))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(count, k, n))
    return r * np.exp(1j * phase)


def sample_channels(rng, spec, count, n, k):
    """Draw count realizations from the family named by spec."""
    if spec.family == "rayleigh":
        return sample_rayleigh(rng, count, n, k)
    if spec.family == "rician":
        return sample_rician(rng, count, n, k, kappa=spec.kappa)
    return sample_nakagami(rng, count, n, k, m=spec.m)


def task_from_dataset(rng, data, n_s, n_q):
    """Task drawn from a fixed dataset, sampling indices without replacement."""
    total = data.shape[0]
    if total < n_s + n_q:
        raise ValueError(
            f"dataset of {total} samples cannot supply a task of {n_s}+{n_q}"
        )
    idx = rng.choice(total, size=n_s + n_q, replace=False)
    return Task(support=data[idx[:n_s]], query=data[idx[n_s:]])


def check_mixture(mixture):
    """Raise ValueError unless mixture is a nonempty sequence of
    (ChannelModelSpec, fraction) with fractions nonnegative and summing to 1
    (tolerance 1e-9)."""
    fracs = np.array([f for _, f in mixture], dtype=np.float64)
    if len(mixture) == 0:
        raise ValueError("mixture must name at least one family")
    if not (np.all(fracs >= 0) and abs(fracs.sum() - 1.0) <= 1e-9):
        raise ValueError(
            f"mixture fractions must be nonnegative and sum to 1, got {fracs.tolist()}")


def make_mixed_dataset(rng, mixture, size, n, k):
    """Dataset of `size` realizations drawn from a mixture of families.

    mixture: sequence of (ChannelModelSpec, fraction) that check_mixture
    accepts. Per-family counts use largest-remainder rounding so
    they sum to `size` exactly; the concatenated blocks are then shuffled with
    a deterministic permutation from rng.
    """
    check_mixture(mixture)
    fracs = np.array([f for _, f in mixture], dtype=np.float64)
    raw = fracs * size
    counts = np.floor(raw).astype(int)
    remainder = size - counts.sum()
    if remainder > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:remainder]] += 1
    blocks = [
        sample_channels(rng, spec, c, n, k)
        for (spec, _), c in zip(mixture, counts)
        if c > 0
    ]
    data = np.concatenate(blocks, axis=0)
    return data[rng.permutation(size)]


def write_dataset(path, data):
    """Write a channel batch to a binary file.

    Layout: magic "MMLC1", then N, K, count as little-endian u32, then
    count*K*N entries as interleaved (re, im) float64 little-endian, user-major
    then antenna within each realization.
    """
    data = np.ascontiguousarray(data, dtype=np.complex128)
    count, k, n = data.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(DATASET_MAGIC, n, k, count))
        fh.write(data.astype("<c16").tobytes())


def read_dataset(path):
    """Read a dataset written by write_dataset; validates magic and size."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise DataFormatError(
            f"file too short for header: {len(blob)} bytes < {_HEADER.size}"
        )
    magic, n, k, count = _HEADER.unpack_from(blob, 0)
    if magic != DATASET_MAGIC:
        raise DataFormatError(f"bad magic {magic!r}, expected {DATASET_MAGIC!r}")
    if min(n, k, count) == 0 or n * k * count > _MAX_ENTRIES:
        raise DataFormatError(f"implausible header sizes N={n} K={k} count={count}")
    expected = _HEADER.size + count * k * n * 16
    if len(blob) != expected:
        raise DataFormatError(
            f"payload size mismatch: file has {len(blob)} bytes, "
            f"expected {expected} (truncated at byte {len(blob)})"
        )
    flat = np.frombuffer(blob, dtype="<c16", offset=_HEADER.size)
    return flat.reshape(count, k, n).astype(np.complex128)
