"""WMMSE solver, its (u, w, mu) decomposition, and grid-search oracles.

The weighted-MMSE alternating solver maximizes the weighted sum rate under a
total power budget. Each iterate is summarized by K complex receiver
coefficients u, K positive MSE weights w, and one dual scalar mu >= 0; the
beamformer is reconstructed from that triple in closed form, which is the
low-dimensional target the predictor networks learn. compute_u, compute_w,
solve_mu and reconstruct_v also take a leading batch axis (one row per start).
reconstruct_v also takes a channel batch, for the forward-only predictor
twin (pipeline.predict_beamformers).
"""

from dataclasses import dataclass

import numpy as np

from . import objective
from .errors import CapabilityError, DegenerateInputError, SingularMatrixError
from .linalg import (
    PIVOT_RTOL,
    hermitian_rank1_sum,
    hpd_solve,
    normalize_to_power,
)


@dataclass
class ComponentTriple:
    """Decomposed WMMSE state: receiver gains u, MSE weights w, dual mu."""

    u: np.ndarray  # (K,) complex128, or (S, K) for a batch of S triples
    w: np.ndarray  # (K,) float64, or (S, K)
    mu: float  # or an (S,) array


@dataclass
class WmmseResult:
    v: np.ndarray  # (N, K) beamformer
    components: ComponentTriple  # triple recomputed at the returned iterate
    iterations: int
    wsr_trace: np.ndarray  # WSR of each iterate, initial point included
    converged: bool  # the winning start stopped on eps, not at max_iters


@dataclass
class OracleResult:
    wsr: float
    lam: np.ndarray  # (K,) dual simplex point
    p: np.ndarray  # (K,) power split
    v: np.ndarray  # (N, K) best beamformer found


def compute_w(h, v, cfg):
    """MSE weights w_k = 1 + SINR_k (total over interference-plus-noise)."""
    a2 = np.abs(h.conj() @ v) ** 2
    signal = np.diagonal(a2, axis1=-2, axis2=-1)
    totals = cfg.sigma2 + a2.sum(axis=-1)
    return totals / (totals - signal)


def compute_u(h, v, cfg):
    """MMSE receiver gains u_k = h_k^H v_k / (sigma2 + sum_j |h_k^H v_j|^2)."""
    g = h.conj() @ v
    totals = cfg.sigma2 + np.sum(np.abs(g) ** 2, axis=-1)
    return np.diagonal(g, axis1=-2, axis2=-1) / totals


def column_scales(u, w, cfg):
    """Per-user reconstruction scales alpha_k w_k u_k, in that float order."""
    return cfg.alpha_vec * w * u


def _assemble_s(h, u, w, cfg):
    """S = sum_k alpha_k |u_k|^2 w_k h_k h_k^H, the shared quadratic term."""
    coeffs = cfg.alpha_vec * np.abs(u) ** 2 * w
    return hermitian_rank1_sum(coeffs, h)


def reconstruct_v(h, components, cfg, s=None):
    """Closed-form beamformer v_k = alpha_k w_k u_k (S + mu I)^{-1} h_k.

    h is one (K, N) channel shared by every row of the components, or a
    channel batch (B, K, N) with one (u, w, mu) row per channel. s, when
    given, is S already assembled from the same (u, w).
    """
    u = np.asarray(components.u, dtype=np.complex128)
    w = np.asarray(components.w, dtype=np.float64)
    if s is None:
        s = _assemble_s(h, u, w, cfg)
    x = hpd_solve(s, components.mu, np.swapaxes(h, -1, -2))  # (S + mu I)^{-1} h_k
    return x * column_scales(u, w, cfg)[..., None, :]


def solve_mu(h, u, w, cfg, rtol=1e-9, max_iters=200, s=None):
    """Smallest mu >= 0 putting the reconstructed power at the budget.

    u and w are (K,) for one triple, which returns a float, or (S, K) for S
    triples, which returns one mu per row. The reconstructed power is
    strictly decreasing in mu: returns 0 when the power at mu = 0 is already
    within budget, otherwise a mu with power in [P (1 - rtol), P]. Raises
    DegenerateInputError when all reconstruction scales of a row vanish (the
    power can then never reach P), and SingularMatrixError when the budget is
    unreachable or the search has not converged after max_iters steps.

    With fewer users than antennas S can be rank deficient while the budget
    is slack (the unconstrained optimum). The mu -> 0+ limit of the
    reconstruction is still finite because every scaled column h_k lies in
    the range of S, so instead of 0 this returns a floor proportional to
    trace(S) that keeps the downstream Cholesky solve positive definite and
    perturbs that limit by a negligible relative amount.

    s, when given, is S already assembled from the same (S, K) rows of
    (u, w), shape (S, N, N).
    """
    single = np.ndim(u) == 1
    u = np.atleast_2d(np.asarray(u, dtype=np.complex128))
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    scales2 = np.abs(column_scales(u, w, cfg)) ** 2
    if np.any(np.all(scales2 == 0.0, axis=-1)):
        raise DegenerateInputError("all reconstruction scales are zero")
    if s is None:
        s = _assemble_s(h, u, w, cfg)
    # One Hermitian eigendecomposition per row turns each power evaluation
    # into a rational function of mu: power(mu) = sum_n c[n] / (eig_n + mu)^2.
    eigs, q = np.linalg.eigh(s)
    proj = np.abs(np.swapaxes(q, 1, 2).conj() @ h.T) ** 2  # |q_n^H h_k|^2
    c = np.sum(scales2[:, None, :] * proj, axis=-1)
    # Eigenvalues at rounding scale are exact zeros of S, and their terms of
    # c are rounding noise too (each scaled column h_k lies in the range of
    # S), so drop both: power(mu) is then a clean decreasing rational
    # function all the way down to mu = 0.
    noise = PIVOT_RTOL * np.maximum(eigs.sum(axis=-1), np.finfo(np.float64).tiny)
    live = eigs > noise[:, None]
    c = np.where(live, c, 0.0)
    eigs_live = np.where(live, eigs, 1.0)

    # Newton on power(mu)^(-1/2), which is concave and increasing in mu
    # (More & Sorensen 1983): started at mu = 0 left of the root it climbs
    # without overshooting. Aiming at P (1 - rtol/2) makes the first iterate
    # with power <= P land inside the band [P (1 - rtol), P].
    p = cfg.p
    target = p * (1.0 - 0.5 * rtol)
    mu = np.zeros(len(u))
    todo = np.ones(len(u), dtype=bool)
    for _ in range(max_iters + 1):
        d = eigs_live + mu[:, None]
        pw = np.sum(c / d**2, axis=-1)
        todo &= pw > p
        if not todo.any():
            break
        step = pw * (np.sqrt(pw / target) - 1.0) / np.sum(c / d**3, axis=-1)
        mu = np.where(todo, mu + step, mu)
    else:
        raise SingularMatrixError(f"mu search not converged in {max_iters} steps")
    if not np.all(mu <= 1e18):
        raise SingularMatrixError("power budget unreachable")
    # Rows still at mu = 0 had a slack budget there.
    floor = np.where(eigs[:, 0] > 10.0 * noise, 0.0, 100.0 * noise)
    mu = np.where(mu == 0.0, floor, mu)
    return float(mu[0]) if single else mu


def mrt_beamformer(h, cfg):
    """Matched-filter columns v_k = h_k, scaled to the power budget."""
    return normalize_to_power(np.asarray(h, dtype=np.complex128).T, cfg.p)


def zf_beamformer(h, cfg):
    """Zero-forcing directions with equal powers.

    Columns satisfy h_j^H v_k = 0 for j != k, so the pseudo-inverse is taken
    of conj(h): the received signal pairs conj(h_j) with v_k.
    """
    x = np.linalg.pinv(np.conj(np.asarray(h, dtype=np.complex128)))
    norms = np.linalg.norm(x, axis=0)
    norms[norms == 0.0] = 1.0
    return normalize_to_power(x / norms[None, :], cfg.p)


def wmmse_solve(h, cfg, v0=None, seed=0, eps=1e-8, max_iters=300, restarts=3):
    """Alternating WMMSE maximization of the weighted sum rate.

    The iteration is a local ascent, so when no v0 is given the solver runs a
    start portfolio (matched-filter, zero-forcing, and `restarts` seeded random
    beamformers) and keeps the best run. With an explicit v0 only that single
    start is used. Each run alternates (u, w) and (mu, V) updates and stops
    when the Frobenius change of V drops below eps or max_iters is reached.
    All starts advance together as one batch; a start that stops is frozen
    while the others go on, so each follows the iterates it would alone.
    Always returns the best iterate seen; the returned trace belongs to the
    winning start (the first one reaching the best WSR) and the returned
    triple is recomputed at the best iterate.
    """
    h = np.asarray(h, dtype=np.complex128)
    if v0 is not None:
        starts = [np.asarray(v0, dtype=np.complex128)]
    else:
        rng = np.random.default_rng(seed)
        starts = [mrt_beamformer(h, cfg), zf_beamformer(h, cfg)]
        for _ in range(restarts):
            raw = rng.standard_normal((cfg.n, cfg.k)) + 1j * rng.standard_normal(
                (cfg.n, cfg.k)
            )
            starts.append(normalize_to_power(raw, cfg.p))
    v = np.stack(starts)
    n_starts = len(v)
    h_batch = np.broadcast_to(h, (n_starts,) + h.shape)
    traces = np.empty((max_iters + 1, n_starts))
    traces[0] = objective.batch_wsr(h_batch, v, cfg)
    best_wsr, best_v = traces[0].copy(), v.copy()
    iterations = np.zeros(n_starts, dtype=int)
    converged = np.zeros(n_starts, dtype=bool)
    for it in range(1, max_iters + 1):
        run = np.flatnonzero(~converged)
        if run.size == 0:
            break
        u = compute_u(h, v[run], cfg)
        w = compute_w(h, v[run], cfg)
        s = _assemble_s(h, u, w, cfg)  # shared by the mu search and the solve
        mu = solve_mu(h, u, w, cfg, s=s)
        v_new = reconstruct_v(h, ComponentTriple(u, w, mu), cfg, s=s)
        wsr = objective.batch_wsr(h_batch[run], v_new, cfg)
        traces[it, run] = wsr
        gain = wsr > best_wsr[run]
        best_wsr[run[gain]] = wsr[gain]
        best_v[run[gain]] = v_new[gain]
        converged[run] = np.linalg.norm(v_new - v[run], axis=(1, 2)) < eps
        v[run] = v_new
        iterations[run] = it
    win = int(np.argmax(best_wsr))
    best_v = best_v[win]
    u = compute_u(h, best_v, cfg)
    w = compute_w(h, best_v, cfg)
    mu = solve_mu(h, u, w, cfg)
    trace = traces[: iterations[win] + 1, win].copy()
    return WmmseResult(best_v, ComponentTriple(u, w, mu), int(iterations[win]),
                       trace, converged=bool(converged[win]))


def structure_beamformer(h, lam, p, cfg):
    """Beamformer from the dual/power parametrization.

    v_k = sqrt(p_k) * (I + sum_j lam_j / sigma2 * h_j h_j^H)^{-1} h_k,
    with each direction normalized to unit length before the power split is
    applied. lam = 0 gives matched-filter (MRT) directions.
    """
    lam = np.asarray(lam, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if np.any(lam < 0) or np.any(p < 0):
        raise ValueError("lam and p must be nonnegative")
    a = np.eye(cfg.n) + hermitian_rank1_sum(lam / cfg.sigma2, h)
    x = hpd_solve(a, 0.0, h.T)
    norms = np.linalg.norm(x, axis=0)
    if np.any(norms == 0.0):
        raise DegenerateInputError("a channel row is zero; direction undefined")
    return (x / norms[None, :]) * np.sqrt(p)[None, :]


def _simplex_grid(k, total, steps):
    """All K-vectors on the simplex {x >= 0, sum x = total} with steps-1 parts."""
    parts = steps - 1
    if k == 1:
        return np.array([[float(total)]])
    grids = []
    if k == 2:
        for i in range(parts + 1):
            grids.append((i, parts - i))
    else:
        for i in range(parts + 1):
            for j in range(parts + 1 - i):
                grids.append((i, j, parts - i - j))
    return np.array(grids, dtype=np.float64) * (total / parts)


def grid_oracle(h, cfg, grid_steps=41):
    """Exhaustive search over the dual and power simplexes (K <= 3 only).

    Grids both lam and p over {x >= 0, sum x = P} with grid_steps points per
    axis, evaluates the structured beamformer at every pair, and returns the
    best weighted sum rate found. Costs O(steps^(2(K-1))), so it is a small-K
    reference, not a solver.
    """
    if cfg.k > 3:
        raise CapabilityError(f"grid oracle supports K <= 3, got K={cfg.k}")
    if grid_steps < 5:
        raise ValueError("grid_steps must be at least 5")
    h = np.asarray(h, dtype=np.complex128)
    lam_grid = _simplex_grid(cfg.k, cfg.p, grid_steps)
    p_grid = _simplex_grid(cfg.k, cfg.p, grid_steps)
    alpha = cfg.alpha_vec
    best = (-np.inf, None, None)
    for lam in lam_grid:
        a = np.eye(cfg.n) + hermitian_rank1_sum(lam / cfg.sigma2, h)
        x = hpd_solve(a, 0.0, h.T)
        norms = np.linalg.norm(x, axis=0)
        if np.any(norms == 0.0):
            raise DegenerateInputError("a channel row is zero; direction undefined")
        d = x / norms[None, :]
        g = np.abs(h.conj() @ d) ** 2  # g[k, j] = |h_k^H d_j|^2
        signal = p_grid * np.diag(g)[None, :]
        interference = p_grid @ g.T - signal
        rates = np.log1p(signal / (cfg.sigma2 + interference)) / np.log(2.0)
        wsrs = rates @ alpha
        i = int(np.argmax(wsrs))
        if wsrs[i] > best[0]:
            best = (float(wsrs[i]), lam.copy(), p_grid[i].copy())
    wsr_best, lam_best, p_best = best
    v_best = structure_beamformer(h, lam_best, p_best, cfg)
    return OracleResult(wsr=wsr_best, lam=lam_best, p=p_best, v=v_best)
