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
    """Total transmit power ||V||_F^2 = sum_k ||v_k||^2 of a beamformer."""
    v = np.asarray(v)
    return float(np.sum(np.abs(v) ** 2))


def normalize_to_power(v, p):
    """Scale V so that total_power(V) == p exactly (up to float rounding).

    Raises DegenerateInputError when ||V||_F^2 is 0 in floating point (an
    all-zero V, or entries below about 1e-154) or V has a non-finite entry;
    p must be positive.
    """
    if p <= 0:
        raise ValueError(f"target power must be positive, got {p}")
    v = np.asarray(v, dtype=np.complex128)
    with np.errstate(over="ignore"):
        pw = total_power(v)
    if pw == 0.0:
        raise DegenerateInputError("cannot normalize an all-zero beamformer")
    if not pw < np.inf or pw < np.finfo(np.float64).tiny or p / pw == np.inf:
        # ||V||^2 overflowed, lost precision in the subnormals, or is so
        # small that p / pw overflows: scale to a unit largest entry first.
        peak = np.max(np.abs(v))
        if not np.isfinite(peak):
            raise DegenerateInputError("cannot normalize a non-finite beamformer")
        v = v / peak
        pw = total_power(v)
    return v * np.sqrt(p / pw)
