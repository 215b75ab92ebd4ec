"""Complex linear algebra helpers for small dense systems.

All routines work on numpy complex128 arrays. Channel vectors are 1-D of
length N; beamformer matrices are (N, K) with one column per user.
hpd_solve is the package's one Hermitian positive definite solve: the WMMSE
solver, the forward-only twin and the tape's solve node share its policy.
"""

import numpy as np

from .errors import DegenerateInputError, SingularMatrixError

# Relative pivot threshold for declaring a factorization singular.
PIVOT_RTOL = 1e-12


def hermitian_rank1_sum(coeffs, vectors, n=None):
    """Sum of rank-one terms c_k * h_k h_k^H.

    coeffs: real nonnegative, shape (K,) or batched (..., K). vectors: K
    vectors of length N, either shared by every batch row (a sequence of 1-D
    arrays, or an array of shape (K, N)) or one set per row, shape
    (..., K, N). n is required when the sum is empty and fixes the output
    size.

    Returns (..., N, N) Hermitian PSD complex matrices; the construction makes
    each result exactly equal to its own conjugate transpose.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    try:
        vectors = np.asarray(vectors, dtype=np.complex128)
    except ValueError as exc:
        raise ValueError("all vectors must share the same length") from exc
    k = vectors.shape[-2] if vectors.ndim > 1 else len(vectors)
    if coeffs.shape[-1:] != (k,):
        raise ValueError(
            f"need one coefficient per vector, got {coeffs.shape[-1:]} coeffs "
            f"and {k} vectors"
        )
    if np.any(coeffs < 0):
        raise ValueError("coefficients must be nonnegative")
    if k == 0:
        if n is None:
            raise ValueError("empty sum needs an explicit size n")
        return np.zeros(coeffs.shape[:-1] + (n, n), dtype=np.complex128)
    out = np.einsum("...k,...kn,...km->...nm", coeffs, vectors, vectors.conj())
    # Mirrored entries of (S + S^H)/2 evaluate the same expression, so the
    # result equals its conjugate transpose to the bit (the sum alone does
    # not guarantee that under fused-multiply-add contraction).
    return 0.5 * (out + np.swapaxes(out, -1, -2).conj())


def hpd_solve(a, mu, b):
    """Solve (A + mu I) x = b for Hermitian positive definite A + mu I.

    a: (..., N, N) Hermitian. mu: real >= 0 shift, a scalar or one value per
    matrix (shape a.shape[:-2]). b: (N,) or (N, K), or batched (..., N, K).
    Raises SingularMatrixError when any Cholesky factorization fails or any
    squared pivot (factor diagonal) is at most PIVOT_RTOL * trace(A + mu I)
    of its matrix; then solves once (numpy has no batched triangular solve).
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    n = a.shape[-1]
    if a.ndim < 2 or a.shape[-2] != n:
        raise ValueError(f"A must be square, got {a.shape}")
    rows = b.shape[0] if b.ndim == 1 else b.shape[-2]
    if rows != n:
        raise ValueError(f"rhs length {rows} does not match A size {n}")
    mu = np.asarray(mu, dtype=np.float64)
    s = a + mu[..., None, None] * np.eye(n) if mu.any() else a
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"A + {mu} I is not positive definite") from exc
    pivots = np.diagonal(chol, axis1=-2, axis2=-1).real ** 2
    trace = np.einsum("...ii->...", s).real
    threshold = PIVOT_RTOL * np.maximum(trace, np.finfo(np.float64).tiny)
    # one pass over the pivots (a NaN fails it); per-matrix minima cost more
    if not (pivots > threshold[..., None]).all():
        raise SingularMatrixError(
            f"pivot below threshold (smallest pivot/threshold ratio "
            f"{np.min(pivots.min(axis=-1) / threshold):.3e})"
        )
    return np.linalg.solve(s, b)  # broadcasts a shared b over the batch


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
