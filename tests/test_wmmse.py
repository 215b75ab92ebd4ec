"""Alternating-optimization solver tests.

Scalar oracles, derived by hand before writing the assertions:

* reconstruct: N=K=1, h=1, u=1, w=2, mu=1, alpha=1 gives
  S = alpha |u|^2 w = 2 and v = alpha u w (S+mu)^{-1} h = 2/3.
* multiplier: with u=1, w=2, h=1 the power is 4/(2+mu)^2; requiring
  power = 4/9 forces mu = 1 exactly.
* mu = 0 branch: u=10, w=1, h=1 gives v = 10 * (1/100) * 10 ... = 0.1 at
  mu=0, power 0.01 <= P, so no positive multiplier is needed.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metabeam import objective, wmmse
from metabeam.errors import CapabilityError, DegenerateInputError, SingularMatrixError
from metabeam.linalg import (
    PIVOT_RTOL,
    hermitian_rank1_sum,
    normalize_to_power,
    total_power,
)
from metabeam.objective import SystemConfig, all_sinr, wsr
from metabeam.wmmse import (
    ComponentTriple,
    compute_u,
    compute_w,
    grid_oracle,
    mrt_beamformer,
    reconstruct_v,
    solve_mu,
    structure_beamformer,
    wmmse_solve,
    zf_beamformer,
)


def rand_h(rng, k, n):
    return rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))


def test_w_zero_beamformer_is_one():
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    h = rand_h(np.random.default_rng(0), 2, 2)
    np.testing.assert_array_equal(compute_w(h, np.zeros((2, 2), complex), cfg), [1.0, 1.0])


def test_w_equals_one_plus_sinr():
    rng = np.random.default_rng(1)
    cfg = SystemConfig(n=3, k=3, sigma2=1.0, p=10.0)
    for _ in range(1000):
        h = rand_h(rng, 3, 3)
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = v * np.sqrt(cfg.p / total_power(v))
        w = compute_w(h, v, cfg)
        np.testing.assert_allclose(w, 1.0 + all_sinr(h, v, cfg), atol=1e-12)
        # and w = 1 / e, the MSE of the receiver compute_u gives, written
        # out from its definition with a plain matmul
        g = h.conj() @ v
        u = compute_u(h, v, cfg)
        d = np.diag(g)
        interference = np.sum(np.abs(g) ** 2, axis=1) - np.abs(d) ** 2
        e = np.abs(1.0 - np.conj(u) * d) ** 2 + np.abs(u) ** 2 * (interference + cfg.sigma2)
        np.testing.assert_allclose(w, 1.0 / e, rtol=1e-10)


def test_u_single_user_closed_form():
    # K=1 matched filter: u = sqrt(P) ||h|| / (sigma2 + P ||h||^2), real.
    cfg = SystemConfig(n=3, k=1, sigma2=1.0, p=10.0)
    rng = np.random.default_rng(2)
    h = rand_h(rng, 1, 3)
    nh = np.linalg.norm(h)
    v = np.sqrt(cfg.p) * h.T / nh
    u = compute_u(h, v, cfg)
    expected = np.sqrt(cfg.p) * nh / (cfg.sigma2 + cfg.p * nh**2)
    assert u[0] == pytest.approx(expected, rel=1e-12)
    assert abs(u[0].imag) < 1e-15


def test_reconstruct_scalar_oracle():
    cfg = SystemConfig(n=1, k=1, sigma2=1.0, p=10.0)
    h = np.array([[1.0 + 0j]])
    comps = ComponentTriple(u=np.array([1.0 + 0j]), w=np.array([2.0]), mu=1.0)
    v = reconstruct_v(h, comps, cfg)
    assert v[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_reconstruct_diagonal_oracle():
    # Orthogonal unit channels, u=w=1, mu=0.5: S = I, each column is
    # (1 + 0.5)^{-1} e_k = (2/3) e_k.
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    h = np.eye(2, dtype=complex)
    comps = ComponentTriple(u=np.ones(2, complex), w=np.ones(2), mu=0.5)
    v = reconstruct_v(h, comps, cfg)
    np.testing.assert_allclose(v, (2.0 / 3.0) * np.eye(2), atol=1e-14)


def test_reconstruct_channel_batch_rows_match_single_calls():
    rng = np.random.default_rng(4)
    cfg = SystemConfig(n=3, k=2, sigma2=0.5, p=2.0)
    h = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    u = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    w = 1.0 + rng.uniform(size=(4, 2))
    mu = rng.uniform(0.1, 1.0, size=4)
    v = reconstruct_v(h, ComponentTriple(u, w, mu), cfg)
    assert v.shape == (4, 3, 2)
    for row in range(4):
        single = reconstruct_v(h[row], ComponentTriple(u[row], w[row], mu[row]), cfg)
        np.testing.assert_array_equal(v[row], single)


def test_solve_mu_closed_form_unity():
    cfg = SystemConfig(n=1, k=1, sigma2=1.0, p=4.0 / 9.0)
    h = np.array([[1.0 + 0j]])
    mu = solve_mu(h, np.array([1.0 + 0j]), np.array([2.0]), cfg)
    assert mu == pytest.approx(1.0, abs=1e-8)


def test_solve_mu_zero_when_unconstrained():
    cfg = SystemConfig(n=1, k=1, sigma2=1.0, p=10.0)
    h = np.array([[1.0 + 0j]])
    mu = solve_mu(h, np.array([10.0 + 0j]), np.array([1.0]), cfg)
    assert mu == 0.0
    comps = ComponentTriple(u=np.array([10.0 + 0j]), w=np.array([1.0]), mu=mu)
    assert total_power(reconstruct_v(h, comps, cfg)) <= cfg.p


def test_solve_mu_hits_power_budget():
    rng = np.random.default_rng(3)
    for trial in range(50):
        n, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        cfg = SystemConfig(n=n, k=k, sigma2=1.0, p=float(rng.uniform(0.5, 20.0)))
        h = rand_h(rng, k, n)
        u = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        w = rng.uniform(1.0, 5.0, size=k)
        mu = solve_mu(h, u, w, cfg)
        p_used = total_power(reconstruct_v(h, ComponentTriple(u, w, mu), cfg))
        if mu > 1e-6:
            assert p_used == pytest.approx(cfg.p, rel=1e-8)
        else:
            # mu is 0 or a floor for a rank-deficient S: budget is slack.
            assert p_used <= cfg.p * (1.0 + 1e-9)


def _assert_budget_row(h, u, w, mu, cfg, rtol=1e-9):
    """mu puts the power in [P (1 - rtol), P], or is 0 / the rank floor."""
    p_used = total_power(reconstruct_v(h, ComponentTriple(u, w, mu), cfg))
    in_band = cfg.p * (1.0 - rtol - 1e-10) <= p_used <= cfg.p * (1.0 + 1e-10)
    trace_s = np.trace(hermitian_rank1_sum(np.abs(u) ** 2 * w, h)).real
    floor = mu == 0.0 or mu == pytest.approx(100.0 * PIVOT_RTOL * trace_s, rel=1e-6)
    assert in_band or (floor and p_used <= cfg.p * (1.0 + 1e-10))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    rows=st.integers(1, 5),
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    snr_db=st.sampled_from([0.0, 10.0, 20.0, 40.0]),
)
def test_solve_mu_batched_rows_match_1d_calls(seed, rows, n, k, snr_db):
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(n=n, k=k, sigma2=1.0, p=10.0 ** (snr_db / 10.0))
    h = rand_h(rng, k, n)
    u = (rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))) / 10.0
    w = rng.uniform(1.0, 5.0, size=(rows, k))
    mu = solve_mu(h, u, w, cfg)
    assert mu.shape == (rows,)
    for row in range(rows):
        single = solve_mu(h, u[row], w[row], cfg)
        assert isinstance(single, float)
        assert mu[row] == pytest.approx(single, rel=1e-12, abs=0.0)
        _assert_budget_row(h, u[row], w[row], mu[row], cfg)


def test_solve_mu_rank_deficient_batch():
    # K=1 < N=3 makes S = |u|^2 w h h^H rank one. With P = 1, u = 1 leaves
    # power(0) = 1/||h||^2 < 1 (slack, so the floor 100 * PIVOT_RTOL *
    # trace(S) comes back), while u = 1e-3 gives power(0) = 1e6/||h||^2 > 1.
    cfg = SystemConfig(n=3, k=1, sigma2=1.0, p=1.0)
    h = rand_h(np.random.default_rng(15), 1, 3)
    u = np.array([[1.0 + 0j], [1e-3 + 0j]])
    w = np.ones((2, 1))
    mu = solve_mu(h, u, w, cfg)
    norm2 = np.linalg.norm(h) ** 2
    assert mu[0] == pytest.approx(100.0 * PIVOT_RTOL * norm2, rel=1e-9)
    assert mu[1] > 1e-6
    for row in range(2):
        _assert_budget_row(h, u[row], w[row], mu[row], cfg)


def test_solve_mu_unreachable_or_unconverged_raises():
    # N=K=1, h=1, u=1e-10, w=1e30: S = 1e10 and power(mu) = 1e40/(1e10+mu)^2,
    # so power = 1 needs mu = 1e20 - 1e10, beyond the 1e18 reach.
    cfg = SystemConfig(n=1, k=1, sigma2=1.0, p=1.0)
    h = np.array([[1.0 + 0j]])
    with pytest.raises(SingularMatrixError):
        solve_mu(h, np.array([1e-10 + 0j]), np.array([1e30]), cfg)
    # The unity oracle above needs one Newton step; zero steps cannot reach it.
    cfg = SystemConfig(n=1, k=1, sigma2=1.0, p=4.0 / 9.0)
    with pytest.raises(SingularMatrixError):
        solve_mu(h, np.array([1.0 + 0j]), np.array([2.0]), cfg, max_iters=0)


def test_solve_mu_degenerate_zero_components():
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    h = rand_h(np.random.default_rng(4), 2, 2)
    with pytest.raises(DegenerateInputError):
        solve_mu(h, np.zeros(2, complex), np.ones(2), cfg)


def test_start_portfolio_beamformers():
    rng = np.random.default_rng(5)
    cfg = SystemConfig(n=3, k=2, sigma2=1.0, p=10.0)
    h = rand_h(rng, 2, 3)
    for maker in (mrt_beamformer, zf_beamformer):
        v = maker(h, cfg)
        assert v.shape == (3, 2)
        assert total_power(v) == pytest.approx(cfg.p, rel=1e-12)
    # MRT columns align with the matched filter h_k: the Hermitian inner
    # product conj(h_k) . v_k attains the norm product.
    v = mrt_beamformer(h, cfg)
    for k in range(2):
        c = np.vdot(h[k], v[:, k]) / (np.linalg.norm(h[k]) * np.linalg.norm(v[:, k]))
        assert abs(c) == pytest.approx(1.0, rel=1e-12)
    # ZF columns null the cross user: h_j^H v_k = 0 for j != k.
    v = zf_beamformer(h, cfg)
    assert abs(np.conj(h[1]) @ v[:, 0]) < 1e-10
    assert abs(np.conj(h[0]) @ v[:, 1]) < 1e-10


def test_wmmse_k1_closed_form():
    rng = np.random.default_rng(6)
    cfg = SystemConfig(n=3, k=1, sigma2=1.0, p=10.0)
    for _ in range(10):
        h = rand_h(rng, 1, 3)
        res = wmmse_solve(h, cfg)
        bound = np.log2(1.0 + cfg.p * np.linalg.norm(h) ** 2 / cfg.sigma2)
        assert res.wsr_trace[-1] <= bound + 1e-9
        assert res.wsr_trace[-1] == pytest.approx(bound, abs=1e-6)


def test_wmmse_monotone_trace_and_power():
    rng = np.random.default_rng(7)
    cfg = SystemConfig(n=3, k=3, sigma2=1.0, p=10.0)
    for trial in range(20):
        h = rand_h(rng, 3, 3)
        res = wmmse_solve(h, cfg)
        trace = np.asarray(res.wsr_trace)
        assert (np.diff(trace) >= -1e-8).all()
        assert total_power(res.v) <= cfg.p * (1.0 + 1e-9)
        assert res.iterations <= 300


def test_wmmse_fixed_point():
    # At convergence the (u, w, mu) triple regenerates the beamformer.
    rng = np.random.default_rng(8)
    cfg = SystemConfig(n=3, k=3, sigma2=1.0, p=10.0)
    h = rand_h(rng, 3, 3)
    res = wmmse_solve(h, cfg, eps=1e-12, max_iters=2000)
    v_back = reconstruct_v(h, res.components, cfg)
    assert np.abs(v_back - res.v).max() < 1e-5


def test_wmmse_explicit_start_is_deterministic():
    rng = np.random.default_rng(9)
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    h = rand_h(rng, 2, 2)
    v0 = mrt_beamformer(h, cfg)
    a = wmmse_solve(h, cfg, v0=v0)
    b = wmmse_solve(h, cfg, v0=v0)
    np.testing.assert_array_equal(a.v, b.v)
    np.testing.assert_array_equal(a.wsr_trace, b.wsr_trace)


def test_structure_beamformer_lambda_zero_is_mrt():
    rng = np.random.default_rng(10)
    cfg = SystemConfig(n=3, k=2, sigma2=1.0, p=10.0)
    h = rand_h(rng, 2, 3)
    p_split = np.array([4.0, 6.0])
    v = structure_beamformer(h, np.zeros(2), p_split, cfg)
    assert total_power(v) == pytest.approx(10.0, rel=1e-12)
    for k in range(2):
        c = np.vdot(h[k], v[:, k]) / (np.linalg.norm(h[k]) * np.linalg.norm(v[:, k]))
        assert abs(c) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(v[:, k]) ** 2 == pytest.approx(p_split[k], rel=1e-12)


def test_grid_oracle_k1_closed_form():
    rng = np.random.default_rng(11)
    cfg = SystemConfig(n=2, k=1, sigma2=1.0, p=10.0)
    h = rand_h(rng, 1, 2)
    res = grid_oracle(h, cfg, grid_steps=11)
    bound = np.log2(1.0 + cfg.p * np.linalg.norm(h) ** 2 / cfg.sigma2)
    assert res.wsr == pytest.approx(bound, abs=1e-9)


def test_grid_oracle_refinement_monotone():
    rng = np.random.default_rng(12)
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    h = rand_h(rng, 2, 2)
    values = [grid_oracle(h, cfg, grid_steps=s).wsr for s in (6, 11, 21, 41)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_grid_oracle_capability_limits():
    cfg4 = SystemConfig(n=2, k=4, sigma2=1.0, p=10.0)
    with pytest.raises(CapabilityError):
        grid_oracle(rand_h(np.random.default_rng(0), 4, 2), cfg4)
    cfg2 = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    with pytest.raises(ValueError):
        grid_oracle(rand_h(np.random.default_rng(0), 2, 2), cfg2, grid_steps=3)


def test_wmmse_not_below_oracle_small():
    # The full 20-instance comparison runs in the acceptance suite; this is
    # the smoke-sized version.
    rng = np.random.default_rng(13)
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    for _ in range(5):
        h = rand_h(rng, 2, 2)
        ours = wmmse_solve(h, cfg).wsr_trace[-1]
        ref = grid_oracle(h, cfg, grid_steps=41).wsr
        assert ours >= 0.99 * ref


def test_wmmse_beats_naive_starts():
    # The returned solution is at least as good as evaluating any single
    # portfolio start directly.
    rng = np.random.default_rng(14)
    cfg = SystemConfig(n=3, k=3, sigma2=1.0, p=10.0)
    h = rand_h(rng, 3, 3)
    res = wmmse_solve(h, cfg)
    for maker in (mrt_beamformer, zf_beamformer):
        assert res.wsr_trace[-1] >= wsr(h, maker(h, cfg), cfg) - 1e-9


def test_wmmse_converged_flag():
    rng = np.random.default_rng(16)
    single = wmmse_solve(rand_h(rng, 1, 3), SystemConfig(n=3, k=1, sigma2=1.0, p=10.0))
    assert single.converged and single.iterations < 300
    cfg = SystemConfig(n=3, k=3, sigma2=1.0, p=1e4)  # 40 dB
    capped = wmmse_solve(rand_h(rng, 3, 3), cfg, max_iters=5)
    assert not capped.converged
    assert capped.iterations == 5 and len(capped.wsr_trace) == 6


def test_wmmse_batched_starts_follow_solo_runs():
    # The portfolio advances all starts as one batch; each must follow the
    # iterates of the same start run alone, and the first start with the
    # best WSR wins.
    rng = np.random.default_rng(17)
    cfg = SystemConfig(n=3, k=3, sigma2=1.0, p=10.0)
    h = rand_h(rng, 3, 3)
    seed, restarts = 4, 3
    start_rng = np.random.default_rng(seed)
    starts = [mrt_beamformer(h, cfg), zf_beamformer(h, cfg)]
    for _ in range(restarts):
        raw = start_rng.standard_normal((3, 3)) + 1j * start_rng.standard_normal((3, 3))
        starts.append(normalize_to_power(raw, cfg.p))
    solo = [wmmse_solve(h, cfg, v0=v0) for v0 in starts]
    win = int(np.argmax([run.wsr_trace.max() for run in solo]))
    res = wmmse_solve(h, cfg, seed=seed, restarts=restarts)
    np.testing.assert_allclose(res.wsr_trace, solo[win].wsr_trace, rtol=1e-12)
    np.testing.assert_allclose(res.v, solo[win].v, rtol=0, atol=1e-12)
    assert res.iterations == solo[win].iterations
    assert res.converged == solo[win].converged
