"""Complex linear algebra helpers for small dense systems.

All routines work on numpy complex128 arrays, over any leading batch axes.
A channel is a (K, N) array of K row vectors; beamformer matrices are
(N, K) with one column per user.
hpd_solve is the one Hermitian positive definite solve of the twin, the tape
and the grid oracle: each builds the matrix it factors (S + mu I included).
Its singularity policy, check_pivots, also guards the WMMSE solver's solve.
"""

from functools import lru_cache

import numpy as np

from .errors import DegenerateInputError, SingularMatrixError

# Relative pivot threshold for declaring a factorization singular.
PIVOT_RTOL = 1e-12
TINY = np.finfo(np.float64).tiny  # floor of a trace the threshold scales


def hermitian_rank1_sum(coeffs, vectors):
    """Sum of rank-one terms c_k * h_k h_k^H.

    coeffs: real nonnegative, shape (K,) or batched (..., K). vectors: an
    array of K vectors of length N, either (K, N), shared by every batch row,
    or one set per row, (..., K, N).

    Returns (..., N, N) Hermitian PSD complex matrices; the construction makes
    each result exactly equal to its own conjugate transpose.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    vectors = np.asarray(vectors, dtype=np.complex128)
    if coeffs.shape[-1:] != vectors.shape[-2:-1]:
        raise ValueError(
            f"need one coefficient per vector, got {coeffs.shape[-1:]} coeffs "
            f"and {vectors.shape[-2:-1]} vectors"
        )
    if (coeffs < 0).any():
        raise ValueError("coefficients must be nonnegative")
    out = np.einsum("...k,...kn,...km->...nm", coeffs, vectors, vectors.conj())
    # Mirrored entries of (S + S^H)/2 evaluate the same expression, so the
    # result equals its conjugate transpose to the bit (the sum alone does
    # not guarantee that under fused-multiply-add contraction).
    return 0.5 * (out + out.swapaxes(-1, -2).conj())


@lru_cache(maxsize=None)
def _identity(n):
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def hpd_solve(s, b):
    """Solve S x = b for Hermitian positive definite S.

    s: (..., N, N) Hermitian; each caller builds the matrix it needs solved
    (S + mu I included). b: (..., N, K), K right-hand sides shared by every
    matrix or one set per matrix; ValueError for any other shape.
    Raises SingularMatrixError when any Cholesky factorization fails or any
    squared pivot (factor diagonal) is at most PIVOT_RTOL * trace(S) of its
    matrix; then solves once (numpy has no batched triangular solve).
    """
    s = np.asarray(s, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    n = s.shape[-1]
    if s.ndim < 2 or s.shape[-2] != n:
        raise ValueError(f"S must be square, got {s.shape}")
    if b.ndim < 2 or b.shape[-2] != n:
        raise ValueError(f"rhs must be (..., {n}, K) for S of size {n}, got {b.shape}")
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("S is not positive definite") from exc
    check_pivots(chol.diagonal(axis1=-2, axis2=-1).real ** 2,
                 s.diagonal(axis1=-2, axis2=-1).real.sum(axis=-1))
    return np.linalg.solve(s, b)  # broadcasts a shared b over the batch


def check_pivots(pivots, trace):
    """The one singularity policy: SingularMatrixError unless each pivot
    (..., N) (squared Cholesky diagonal, or eigenvalue) > PIVOT_RTOL * trace."""
    threshold = PIVOT_RTOL * np.maximum(trace, TINY)
    # one pass over the pivots (a NaN fails it); per-matrix minima cost more
    if not (pivots > threshold[..., None]).all():
        raise SingularMatrixError(
            f"pivot below threshold (smallest pivot/threshold ratio "
            f"{np.min(pivots.min(axis=-1) / threshold):.3e})"
        )


def total_power(v):
    """Total transmit power ||V||_F^2 = sum_k ||v_k||^2 of each (N, K)
    beamformer over the last two axes, shape v.shape[:-2]."""
    return np.sum(np.abs(v) ** 2, axis=(-2, -1))


# Entries up to _MAX_ENTRY square without overflow, and powers from
# _MIN_POWER up keep p / power finite for any p <= MAX_POWER.
_MAX_ENTRY = 1e150
_MIN_POWER = 1e-200
MAX_POWER = 1e100  # the largest power budget p the projection accepts


def normalize_to_power(v, p):
    """scale_to_power without the power: V scaled so total_power(V) == p."""
    return scale_to_power(v, p)[0]


def scale_to_power(v, p):
    """Scale each (N, K) matrix V over the last two axes so that
    total_power(V) == p (up to float rounding). Returns (the scaled V, the
    power ||V||_F^2 of each input matrix, shape v.shape[:-2]).

    A matrix with an entry above 1e150 or a power below 1e-200 is first
    divided by its largest |entry| (its power then reads peak^2 ||V/peak||^2,
    perhaps inf or 0); the others keep the bits of a call on them alone.
    Raises DegenerateInputError when the power of some matrix is 0 in floating
    point (an all-zero V, or entries below about 1e-162) or V has a
    non-finite entry; p must lie in (0, 1e100].
    """
    if not 0.0 < p <= MAX_POWER:
        raise ValueError(f"target power must be in (0, {MAX_POWER:g}], got {p}")
    v = np.asarray(v, dtype=np.complex128)
    mag = np.abs(v)
    # cheaper than a per-matrix peak on small matrices; a NaN fails it too
    if mag.max(initial=0.0) <= _MAX_ENTRY:
        pw = np.sum(mag**2, axis=(-2, -1))
        if pw.min(initial=_MIN_POWER) >= _MIN_POWER:
            return v * np.sqrt(p / pw)[..., None, None], pw
    peak = mag.max(axis=(-2, -1), initial=0.0)
    if not np.isfinite(peak).all():
        raise DegenerateInputError("cannot normalize a non-finite beamformer")
    with np.errstate(over="ignore", under="ignore"):
        pw = np.sum(mag**2, axis=(-2, -1))
        if not pw.all():
            raise DegenerateInputError("cannot normalize an all-zero beamformer")
        # Rescale the matrices out of range to a unit largest entry, so that
        # their power neither overflows nor loses precision in the subnormals.
        scale = np.where((peak <= _MAX_ENTRY) & (pw >= _MIN_POWER), 1.0, peak)
        unit = v / scale[..., None, None]
        pw = total_power(unit)
        return unit * np.sqrt(p / pw)[..., None, None], scale**2 * pw
