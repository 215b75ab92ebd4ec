"""WMMSE solver, its (u, w, mu) decomposition, and the batched grid oracle.

The weighted-MMSE alternating solver maximizes the weighted sum rate under a
total power budget. Each iterate is summarized by K complex receiver
coefficients u, K positive MSE weights w, and one dual scalar mu >= 0; the
beamformer is reconstructed from that triple in closed form, which is the
low-dimensional target the predictor networks learn. compute_u, compute_w
and reconstruct_v also take a leading batch axis (one row per start), and
solve_mu takes rows only, each row's eigenbasis of S and column scales as
the solver builds them: one start is a one-row call. reconstruct_v and
assemble_s also take a channel batch, for the forward-only predictor twin
(pipeline.predict_beamformers) and the tape, and so does mrt_beamformer,
which gives the predictor's reference beamformer; the solver instead gets
V from solve_mu's eigenbasis of S (_solve_in_basis). Rates and the (u, w)
updates come from objective's one rate core: the solver evaluates each
iterate's couplings once, and they feed its rate, the next u and the next w.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import objective
from .errors import CapabilityError, DegenerateInputError, SingularMatrixError
from .linalg import (
    PIVOT_RTOL,
    TINY,
    _identity,
    check_pivots,
    hermitian_rank1_sum,
    hpd_solve,
    normalize_to_power,
)

# solve_mu's relative power band [P (1 - MU_RTOL), P]. At low SNR the rate is
# proportional to the power, so where mu lands in the band moves the rate by a
# fraction of MU_RTOL from pass to pass; the band sits at wmmse_solve's stop
# tolerance so that this sawtooth stays below it and the rate rule can fire.
# A tighter band costs Newton steps at high SNR.
MU_RTOL = 1e-10


@dataclass
class WmmseResult:
    v: np.ndarray  # (N, K) beamformer
    iterations: int
    wsr_trace: np.ndarray  # WSR of each iterate, initial point included
    converged: bool  # the winning start's rate stopped moving before max_iters


def _couplings(h, v):
    """One coupling evaluation of the iterate V: its gains g = h_k^H v_j,
    a2 = |g|^2 and the SINR of every user. It gives V's rate
    (objective.wsr_from_sinr) and, through _receivers_and_weights, the next
    (u, w), so the solver builds each iterate's gain matrix once."""
    g = objective.gains(h, v)
    a2 = np.abs(g) ** 2
    return g, a2, objective.sinr_from_couplings(a2)


def _receivers_and_weights(g, a2, sinr):
    """MMSE receivers u_k = h_k^H v_k / (1 + sum_j |h_k^H v_j|^2) and MSE
    weights w_k = 1 + SINR_k from one coupling evaluation."""
    u = g.diagonal(axis1=-2, axis2=-1) / (1.0 + a2.sum(axis=-1))
    return u, 1.0 + sinr


def compute_u(h, v):
    """MMSE receiver gains u_k of the iterate V."""
    return _receivers_and_weights(*_couplings(h, v))[0]


def compute_w(h, v):
    """MSE weights w_k = 1 + SINR_k of the iterate V."""
    return _receivers_and_weights(*_couplings(h, v))[1]


def column_scales(u, w, cfg):
    """Per-user reconstruction scales alpha_k w_k u_k, in that float order."""
    return cfg.alpha_vec * w * u


def assemble_s(h, u, w, cfg):
    """S = sum_k alpha_k |u_k|^2 w_k h_k h_k^H: the one assembly of S, for
    the solver, the forward twin and the tape's S nodes."""
    coeffs = cfg.alpha_vec * np.abs(u) ** 2 * w
    return hermitian_rank1_sum(coeffs, h)


def reconstruct_v(h, u, w, mu, cfg):
    """Closed-form beamformer v_k = alpha_k w_k u_k (S + mu I)^{-1} h_k, by
    hpd_solve (the solver gets the same V from _solve_in_basis).

    u (complex) and w (real) are (K,) with a scalar mu, or rows (S, K) with
    mu (S,). h is one (K, N) channel shared by every row, or a channel batch
    (B, K, N) with one (u, w, mu) row per channel. S + mu I is built here,
    as autodiff.csolve_hpd builds it.
    """
    s = assemble_s(h, u, w, cfg)
    shifted = s + np.asarray(mu)[..., None, None] * _identity(s.shape[-1])
    x = hpd_solve(shifted, np.swapaxes(h, -1, -2))  # (S + mu I)^{-1} h_k
    return x * column_scales(u, w, cfg)[..., None, :]


def _eigenbasis(s, h):
    """(eigs, q, qh = Q^H h^T (S, N, K)) of each row's S = Q diag(eigs) Q^H."""
    eigs, q = np.linalg.eigh(s)
    return eigs, q, q.swapaxes(1, 2).conj() @ h.T


def _solve_in_basis(basis, mu, scales):
    """reconstruct_v's V to rounding: Q diag(1/(eigs + mu)) Q^H h_k times the
    scales (S, K), on the raw eigenvalues of S + mu I, under check_pivots."""
    eigs, q, qh = basis
    d = eigs + mu[:, None]
    check_pivots(d, np.add.reduce(d, axis=-1))
    return (q @ (qh / d[..., None])) * scales[:, None, :]


def solve_mu(basis, scales, p, max_iters=200, mu0=None):
    """Smallest mu >= 0 putting the reconstructed power at the budget p.

    basis and scales are _eigenbasis(S, h) and column_scales of (S, K) rows
    of (u, w) on one channel h, as wmmse_solve builds them; returns one mu
    per row, (S,). The reconstructed power is strictly decreasing in mu:
    returns 0 when the power at mu = 0 is already within budget (a slack
    row), otherwise a mu with power in [p (1 - MU_RTOL), p]. Raises
    DegenerateInputError when all reconstruction scales of a row vanish (the
    power can then never reach p), and SingularMatrixError when the search
    ends on a non-finite mu (the budget is unreachable in floating point) or
    has not converged after max_iters Newton steps. The size of mu is not
    tested: a common scale of alpha scales mu with it.

    mu0, when given, is one starting mu >= 0 per row, such as the row's
    answer on the previous WMMSE iterate. Slack rows still return 0 (or the
    floor below) whatever their mu0; every other row starts its search at
    mu0, and a row whose power at mu0 is already in the band returns mu0
    after no step at all. Without mu0 the search starts at mu = 0.

    With fewer users than antennas S can be rank deficient while the budget
    is slack (the unconstrained optimum). The mu -> 0+ limit of the
    reconstruction is still finite because every scaled column h_k lies in
    the range of S, so instead of 0 this returns a floor proportional to
    trace(S) that keeps the downstream solve of S + mu I positive definite
    and perturbs that limit by a negligible relative amount.
    """
    scales2 = np.abs(scales) ** 2
    if (scales2 == 0.0).all(axis=-1).any():
        raise DegenerateInputError("all reconstruction scales are zero")
    # One Hermitian eigendecomposition per row turns each power evaluation
    # into a rational function of mu: power(mu) = sum_n c[n] / (eig_n + mu)^2.
    eigs, _, qh = basis
    proj = np.abs(qh) ** 2  # |q_n^H h_k|^2
    c = np.add.reduce(scales2[:, None, :] * proj, axis=-1)
    # Eigenvalues at rounding scale are exact zeros of S, and their terms of
    # c are rounding noise too (each scaled column h_k lies in the range of
    # S), so drop both: power(mu) is then a clean decreasing rational
    # function all the way down to mu = 0.
    noise = PIVOT_RTOL * np.maximum(np.add.reduce(eigs, axis=-1), TINY)
    live = eigs > noise[:, None]
    c = np.where(live, c, 0.0)
    eigs_live = np.where(live, eigs, 1.0)

    # Newton on power(mu)^(-1/2), which is concave and increasing in mu
    # (More & Sorensen 1983): from a start left of the root (mu = 0, or a
    # mu0 with power above P) it climbs without overshooting, and from a
    # start right of it (a mu0 with power below the band) one step lands
    # left of the root, clamped at 0, and the climb goes on from there.
    # Aiming at P (1 - MU_RTOL/2) makes the first climbing iterate with power
    # <= P land inside the band [P (1 - MU_RTOL), P]. A pass is bare ufunc
    # calls; rows in the band keep their mu, and the in-place update of the
    # others shows through the column view mu_col. Slack rows sit at mu = 0
    # with power <= P, and the search leaves them there.
    target = p * (1.0 - 0.5 * MU_RTOL)
    slack = np.add.reduce(c / eigs_live**2, axis=-1) <= p
    mu = np.where(slack, 0.0, 0.0 if mu0 is None else mu0)
    low = np.where(slack, -np.inf, p * (1.0 - MU_RTOL))
    mu_col = mu[:, None]
    for _ in range(max_iters + 1):
        d = eigs_live + mu_col
        pw = np.add.reduce(c / d**2, axis=-1)
        todo = (pw > p) | (pw < low)
        if not np.logical_or.reduce(todo):
            break
        step = pw * (np.sqrt(pw / target) - 1.0) / np.add.reduce(c / d**3, axis=-1)
        np.add(mu, step, out=mu, where=todo)
        np.maximum(mu, 0.0, out=mu)
    else:
        raise SingularMatrixError(f"mu search not converged in {max_iters} steps")
    if not np.isfinite(mu).all():
        raise SingularMatrixError("power budget unreachable")
    # Rows still at mu = 0 had a slack budget there.
    floor = np.where(eigs[:, 0] > 10.0 * noise, 0.0, 100.0 * noise)
    return np.where(mu == 0.0, floor, mu)


def mrt_beamformer(h, cfg):
    """Matched-filter columns v_k = h_k, scaled to the power budget, for one
    (K, N) channel or a batch (..., K, N); returns (..., N, K)."""
    h = np.asarray(h, dtype=np.complex128)
    # contiguous, so the power sum runs in the same order for any input layout
    return normalize_to_power(np.swapaxes(h, -1, -2).copy(), cfg.p)


def zf_beamformer(h, cfg):
    """Zero-forcing directions with equal powers.

    Columns satisfy h_j^H v_k = 0 for j != k, so the pseudo-inverse is taken
    of conj(h): the received signal pairs conj(h_j) with v_k.
    """
    x = np.linalg.pinv(np.conj(np.asarray(h, dtype=np.complex128)))
    norms = np.linalg.norm(x, axis=0)
    norms[norms == 0.0] = 1.0
    return normalize_to_power(x / norms[None, :], cfg.p)


def wmmse_solve(h, cfg, seed=0, rtol=1e-10, max_iters=300, restarts=3):
    """Alternating WMMSE maximization of the weighted sum rate.

    The iteration is a local ascent, so the solver runs a start portfolio
    (matched-filter, zero-forcing, and `restarts` seeded random beamformers)
    and keeps the best run. Each run alternates (u, w) and (mu, V) updates
    and stops on the pass where its rate stops moving, |WSR_t - WSR_{t-1}|
    <= rtol |WSR_t| (the objective-change test of Shi, Razaviyayn, Luo & He,
    IEEE TSP 2011), or at max_iters.
    All starts advance together as one batch; a start that stops is dropped
    from the running batch, its results kept, while the others go on, so
    each follows the iterates it would alone.
    One coupling evaluation per iterate (objective.gains on the running
    starts) gives its rate and then the next (u, w), bit for bit what
    compute_u, compute_w and objective.wsr give. Each start's mu search
    begins at its mu of the previous iterate (solve_mu's mu0; pass 1
    starts at mu = 0), so a start whose power is still in the band there
    takes no Newton step. V is solved in the search's eigenbasis of S.
    Always returns the best iterate seen; the returned trace belongs to the
    winning start (the first one reaching the best WSR).
    """
    h = np.asarray(h, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    starts = [mrt_beamformer(h, cfg), zf_beamformer(h, cfg)]
    for _ in range(restarts):
        raw = rng.standard_normal((cfg.n, cfg.k)) + 1j * rng.standard_normal((cfg.n, cfg.k))
        starts.append(normalize_to_power(raw, cfg.p))
    v = np.stack(starts)
    g, a2, sinr = _couplings(h, v)  # of the running starts' iterates
    # Per-start results as of iteration 0; a start's row is written once more
    # when it stops or at the cap, from the compact state of the running
    # starts (row r is start run[r]), cut like the couplings as starts stop.
    traces = np.empty((len(v), max_iters + 1))
    traces[:, 0] = objective.wsr_from_sinr(sinr, cfg)
    best_wsr, best_v = traces[:, 0].copy(), v.copy()
    iterations, converged = np.zeros(len(v), dtype=int), np.zeros(len(v), dtype=bool)
    run, run_traces, run_best_wsr, run_best_v = (
        np.arange(len(v)), traces.copy(), best_wsr.copy(), v.copy())
    mu = None  # each running start's mu; pass 1 searches from mu = 0
    for it in range(1, max_iters + 1):
        u, w = _receivers_and_weights(g, a2, sinr)
        basis = _eigenbasis(assemble_s(h, u, w, cfg), h)  # S's one factorization
        scales = column_scales(u, w, cfg)  # shared by the mu search and the solve
        mu = solve_mu(basis, scales, cfg.p, mu0=mu)
        v = _solve_in_basis(basis, mu, scales)
        g, a2, sinr = _couplings(h, v)
        wsr = run_traces[:, it] = objective.wsr_from_sinr(sinr, cfg)
        gain = wsr > run_best_wsr
        np.copyto(run_best_wsr, wsr, where=gain)
        np.copyto(run_best_v, v, where=gain[:, None, None])
        stop = np.abs(wsr - run_traces[:, it - 1]) <= rtol * np.abs(wsr)
        if stop.any() or it == max_iters:
            done = stop | (it == max_iters)
            rows = run[done]
            traces[rows], iterations[rows], converged[rows] = run_traces[done], it, stop[done]
            best_wsr[rows], best_v[rows] = run_best_wsr[done], run_best_v[done]
            run, run_traces, run_best_wsr, run_best_v, g, a2, sinr, mu = (
                x[~done] for x in (run, run_traces, run_best_wsr, run_best_v, g, a2, sinr, mu))
            if not run.size:
                break
    win = int(np.argmax(best_wsr))
    trace = traces[win, : iterations[win] + 1].copy()
    return WmmseResult(best_v[win], int(iterations[win]), trace,
                       converged=bool(converged[win]))


def _directions(h, lam):
    """Unit-norm columns of (I + sum_j lam_j h_j h_j^H)^{-1} h_k of one dual
    point lam (K,), or of a grid (G, K) in one solve, (G, N, K)."""
    a = np.eye(h.shape[-1]) + hermitian_rank1_sum(lam, h)
    x = hpd_solve(a, h.T)
    norms = np.linalg.norm(x, axis=-2)
    if np.any(norms == 0.0):
        raise DegenerateInputError("a channel row is zero; direction undefined")
    return x / norms[..., None, :]


def _simplex_grid(k, total, steps):
    """All (G, K) points of the simplex {x >= 0, sum x = total} in steps-1 parts."""
    parts = steps - 1 if k > 1 else 1  # K = 1: the one point is total itself
    counts = [c for c in itertools.product(range(parts + 1), repeat=k) if sum(c) == parts]
    return np.array(counts, dtype=np.float64) * (total / parts)


def grid_oracle(h, cfg, grid_steps=41):
    """Exhaustive search over the dual and power simplexes (K <= 3 only).

    Grids both lam and p over {x >= 0, sum x = P} with grid_steps points per
    axis, evaluates the structured beamformer (_directions scaled by
    sqrt(p)) at every pair, and returns the best weighted sum rate found as
    a float. Costs O(steps^(2(K-1))), so it is a small-K reference.
    """
    if cfg.k > 3:
        raise CapabilityError(f"grid oracle supports K <= 3, got K={cfg.k}")
    if grid_steps < 5:
        raise ValueError("grid_steps must be at least 5")
    h = np.asarray(h, dtype=np.complex128)
    grid = _simplex_grid(cfg.k, cfg.p, grid_steps)  # lam and p share it
    # one solve and one gains call for all dual points; V = d sqrt(p) scales column j by p_j
    a2 = np.abs(objective.gains(h, _directions(h, grid))) ** 2
    return max(float(np.max(objective.wsr_from_sinr(
        objective.sinr_from_couplings(a2_l * grid[:, None, :]), cfg))) for a2_l in a2)
