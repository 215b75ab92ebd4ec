"""Alternating-optimization solver tests.

Scalar oracles, derived by hand before writing the assertions:

* reconstruct: N=K=1, h=1, u=1, w=2, mu=1, alpha=1 gives
  S = alpha |u|^2 w = 2 and v = alpha u w (S+mu)^{-1} h = 2/3.
* multiplier: with u=1, w=2, h=1 the power is 4/(2+mu)^2; requiring
  power = 4/9 forces mu = 1 exactly.
* mu = 0 branch: u=10, w=1, h=1 gives v = 10 * (1/100) * 10 ... = 0.1 at
  mu=0, power 0.01 <= P, so no positive multiplier is needed.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metabeam import objective, wmmse
from metabeam.errors import CapabilityError, DegenerateInputError, SingularMatrixError
from metabeam.linalg import (
    PIVOT_RTOL,
    hermitian_rank1_sum,
    hpd_solve,
    normalize_to_power,
    total_power,
)
from metabeam.objective import SystemConfig, all_sinr, gains, wsr
from metabeam.wmmse import (
    _directions,
    _eigenbasis,
    _simplex_grid,
    _solve_in_basis,
    assemble_s,
    column_scales,
    compute_u,
    compute_w,
    grid_oracle,
    mrt_beamformer,
    reconstruct_v,
    solve_mu,
    wmmse_solve,
    zf_beamformer,
)


def rand_h(rng, k, n):
    return rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))


def test_w_zero_beamformer_is_one():
    h = rand_h(np.random.default_rng(0), 2, 2)
    np.testing.assert_array_equal(compute_w(h, np.zeros((2, 2), complex)), [1.0, 1.0])


def test_w_equals_one_plus_sinr():
    rng = np.random.default_rng(1)
    cfg = SystemConfig(n=3, k=3, p=10.0)
    for _ in range(1000):
        h = rand_h(rng, 3, 3)
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        v = v * np.sqrt(cfg.p / total_power(v))
        w = compute_w(h, v)
        np.testing.assert_allclose(w, 1.0 + all_sinr(h, v), atol=1e-12)
        # and w = 1 / e, the MSE of the receiver compute_u gives, written
        # out from its definition with a plain matmul
        g = h.conj() @ v
        u = compute_u(h, v)
        d = np.diag(g)
        interference = np.sum(np.abs(g) ** 2, axis=1) - np.abs(d) ** 2
        e = np.abs(1.0 - np.conj(u) * d) ** 2 + np.abs(u) ** 2 * (interference + cfg.sigma2)
        np.testing.assert_allclose(w, 1.0 / e, rtol=1e-10)


def test_u_single_user_closed_form():
    # K=1 matched filter: u = sqrt(P) ||h|| / (sigma2 + P ||h||^2), real.
    cfg = SystemConfig(n=3, k=1, p=10.0)
    rng = np.random.default_rng(2)
    h = rand_h(rng, 1, 3)
    nh = np.linalg.norm(h)
    v = np.sqrt(cfg.p) * h.T / nh
    u = compute_u(h, v)
    expected = np.sqrt(cfg.p) * nh / (cfg.sigma2 + cfg.p * nh**2)
    assert u[0] == pytest.approx(expected, rel=1e-12)
    assert abs(u[0].imag) < 1e-15


def test_reconstruct_scalar_oracle():
    cfg = SystemConfig(n=1, k=1, p=10.0)
    h = np.array([[1.0 + 0j]])
    v = reconstruct_v(h, np.array([1.0 + 0j]), np.array([2.0]), 1.0, cfg)
    assert v[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-14)


def test_reconstruct_diagonal_oracle():
    # Orthogonal unit channels, u=w=1, mu=0.5: S = I, each column is
    # (1 + 0.5)^{-1} e_k = (2/3) e_k.
    cfg = SystemConfig(n=2, k=2, p=10.0)
    h = np.eye(2, dtype=complex)
    v = reconstruct_v(h, np.ones(2, complex), np.ones(2), 0.5, cfg)
    np.testing.assert_allclose(v, (2.0 / 3.0) * np.eye(2), atol=1e-14)


def test_reconstruct_channel_batch_rows_match_single_calls():
    rng = np.random.default_rng(4)
    cfg = SystemConfig(n=3, k=2, p=2.0)
    h = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
    u = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    w = 1.0 + rng.uniform(size=(4, 2))
    mu = rng.uniform(0.1, 1.0, size=4)
    v = reconstruct_v(h, u, w, mu, cfg)
    assert v.shape == (4, 3, 2)
    for row in range(4):
        single = reconstruct_v(h[row], u[row], w[row], mu[row], cfg)
        np.testing.assert_array_equal(v[row], single)


def test_solve_mu_closed_form_unity():
    cfg = SystemConfig(n=1, k=1, p=4.0 / 9.0)
    h = np.array([[1.0 + 0j]])
    mu = solve_mu(h, np.array([[1.0 + 0j]]), np.array([[2.0]]), cfg)
    assert mu.shape == (1,)
    assert mu[0] == pytest.approx(1.0, abs=1e-8)


def test_solve_mu_zero_when_unconstrained():
    cfg = SystemConfig(n=1, k=1, p=10.0)
    h = np.array([[1.0 + 0j]])
    u, w = np.array([[10.0 + 0j]]), np.array([[1.0]])
    mu = solve_mu(h, u, w, cfg)
    np.testing.assert_array_equal(mu, [0.0])
    assert total_power(reconstruct_v(h, u, w, mu, cfg)) <= cfg.p


def test_solve_mu_hits_power_budget():
    rng = np.random.default_rng(3)
    for trial in range(50):
        n, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        cfg = SystemConfig(n=n, k=k, p=float(rng.uniform(0.5, 20.0)))
        h = rand_h(rng, k, n)
        u = rng.standard_normal((1, k)) + 1j * rng.standard_normal((1, k))
        w = rng.uniform(1.0, 5.0, size=(1, k))
        (mu,) = solve_mu(h, u, w, cfg)
        p_used = total_power(reconstruct_v(h, u[0], w[0], mu, cfg))
        if mu > 1e-6:
            assert p_used == pytest.approx(cfg.p, rel=1e-8)
        else:
            # mu is 0 or a floor for a rank-deficient S: budget is slack.
            assert p_used <= cfg.p * (1.0 + 1e-9)


def _assert_budget_row(h, u, w, mu, cfg, rtol=wmmse.MU_RTOL):
    """mu puts the power in [P (1 - rtol), P], or is 0 / the rank floor."""
    p_used = total_power(reconstruct_v(h, u, w, mu, cfg))
    in_band = cfg.p * (1.0 - rtol - 1e-10) <= p_used <= cfg.p * (1.0 + 1e-10)
    trace_s = np.trace(hermitian_rank1_sum(np.abs(u) ** 2 * w, h)).real
    floor = mu == 0.0 or mu == pytest.approx(100.0 * PIVOT_RTOL * trace_s, rel=1e-6)
    assert in_band or (floor and p_used <= cfg.p * (1.0 + 1e-10))


def _mu_rows(seed, rows, n, k, snr_db):
    """A random channel and `rows` random (u, w) rows for solve_mu."""
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(n=n, k=k, p=10.0 ** (snr_db / 10.0))
    h = rand_h(rng, k, n)
    u = (rng.standard_normal((rows, k)) + 1j * rng.standard_normal((rows, k))) / 10.0
    w = rng.uniform(1.0, 5.0, size=(rows, k))
    return cfg, h, u, w


_MU_ROWS = {
    "seed": st.integers(0, 2**31 - 1),
    "rows": st.integers(1, 5),
    "n": st.integers(1, 4),
    "k": st.integers(1, 4),
    "snr_db": st.sampled_from([0.0, 10.0, 20.0, 40.0]),
}


@settings(max_examples=60, deadline=None)
@given(**_MU_ROWS)
def test_solve_mu_batched_rows_match_1d_calls(seed, rows, n, k, snr_db):
    cfg, h, u, w = _mu_rows(seed, rows, n, k, snr_db)
    mu = solve_mu(h, u, w, cfg)
    assert mu.shape == (rows,)
    for row in range(rows):
        single = solve_mu(h, u[row : row + 1], w[row : row + 1], cfg)
        assert single.shape == (1,)
        assert mu[row] == pytest.approx(single[0], rel=1e-12, abs=0.0)
        _assert_budget_row(h, u[row], w[row], mu[row], cfg)


@settings(max_examples=60, deadline=None)
@given(**_MU_ROWS, picks=st.lists(st.integers(0, 5), min_size=5, max_size=5))
def test_solve_mu_warm_start_contract(seed, rows, n, k, snr_db, picks):
    # From any of these starts each row still lands in the power band (or
    # at 0 / the rank floor), rows stay independent of each other, and a
    # slack row returns what the cold search returns, whatever its start.
    cfg, h, u, w = _mu_rows(seed, rows, n, k, snr_db)
    cold = solve_mu(h, u, w, cfg)
    floor = 100.0 * PIVOT_RTOL * np.trace(assemble_s(h, u, w, cfg), axis1=1, axis2=2).real
    starts = np.stack([np.zeros(rows), cold, 0.5 * cold, 2.0 * cold, 1e6 * cold, floor])
    mu0 = starts[picks[:rows], np.arange(rows)]
    mu = solve_mu(h, u, w, cfg, mu0=mu0)
    assert mu.shape == (rows,)
    for row in range(rows):
        single = solve_mu(h, u[row : row + 1], w[row : row + 1], cfg, mu0=mu0[row : row + 1])
        np.testing.assert_array_equal(mu[row], single[0])
        _assert_budget_row(h, u[row], w[row], mu[row], cfg)
        if cold[row] in (0.0, floor[row]):  # slack at mu = 0
            assert mu[row] == cold[row]


@settings(max_examples=60, deadline=None)
@given(**_MU_ROWS)
def test_solve_mu_warm_start_at_its_answer_takes_no_step(seed, rows, n, k, snr_db):
    # A row started at its own answer is already in the band (or slack), so
    # the search returns that answer without a single Newton step.
    cfg, h, u, w = _mu_rows(seed, rows, n, k, snr_db)
    mu = solve_mu(h, u, w, cfg)
    np.testing.assert_array_equal(solve_mu(h, u, w, cfg, mu0=mu, max_iters=0), mu)


def test_solve_mu_rank_deficient_batch():
    # K=1 < N=3 makes S = |u|^2 w h h^H rank one. With P = 1, u = 1 leaves
    # power(0) = 1/||h||^2 < 1 (slack, so the floor 100 * PIVOT_RTOL *
    # trace(S) comes back), while u = 1e-3 gives power(0) = 1e6/||h||^2 > 1.
    cfg = SystemConfig(n=3, k=1, p=1.0)
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
    cfg = SystemConfig(n=1, k=1, p=1.0)
    h = np.array([[1.0 + 0j]])
    with pytest.raises(SingularMatrixError):
        solve_mu(h, np.array([[1e-10 + 0j]]), np.array([[1e30]]), cfg)
    # No start gets there either: below the root, at it or far beyond it.
    for mu0 in (0.0, 1e10, 1e20, 1e30):
        with pytest.raises(SingularMatrixError):
            solve_mu(h, np.array([[1e-10 + 0j]]), np.array([[1e30]]), cfg,
                     mu0=np.array([mu0]))
    # The unity oracle above needs one Newton step from mu = 0 or from
    # beyond its root mu = 1; zero steps cannot reach it, but mu0 = 1 is
    # already the answer.
    cfg = SystemConfig(n=1, k=1, p=4.0 / 9.0)
    u, w = np.array([[1.0 + 0j]]), np.array([[2.0]])
    for mu0 in (None, np.array([0.0]), np.array([3.0])):
        with pytest.raises(SingularMatrixError):
            solve_mu(h, u, w, cfg, max_iters=0, mu0=mu0)
    np.testing.assert_array_equal(solve_mu(h, u, w, cfg, max_iters=0, mu0=np.array([1.0])),
                                  [1.0])


def test_solve_mu_degenerate_zero_components():
    cfg = SystemConfig(n=2, k=2, p=10.0)
    h = rand_h(np.random.default_rng(4), 2, 2)
    with pytest.raises(DegenerateInputError):
        solve_mu(h, np.zeros((1, 2), complex), np.ones((1, 2)), cfg)


@pytest.mark.parametrize("n, k", [(3, 3), (4, 2)])
def test_solve_in_basis_equals_reconstruct_v(n, k):
    # The solver's V step solves S + mu I in solve_mu's eigenbasis of S; on
    # the same rows it gives reconstruct_v's hpd_solve to rounding, and the
    # basis changes no bit of mu. With K < N, S is rank deficient, and rows
    # with a slack budget sit at the floor mu, where S + mu I has a
    # condition number near 1e10: there both solves carry null-space
    # rounding noise of about 1e-6 ||V|| that no gain h_j^H v_k sees, so
    # those rows agree to 1e-12 on their gains and to 1e-5 on V.
    floor_rows = 0
    for snr_db in (0, 10, 20, 30, 40):
        rng = np.random.default_rng(40 + snr_db)
        cfg = SystemConfig(n=n, k=k, p=10.0 ** (snr_db / 10))
        h = rand_h(rng, k, n)
        v = normalize_to_power(rng.standard_normal((8, n, k))
                               + 1j * rng.standard_normal((8, n, k)), cfg.p)
        u, w = compute_u(h, v), compute_w(h, v)
        s = assemble_s(h, u, w, cfg)
        basis = _eigenbasis(s, h)
        mu = solve_mu(h, u, w, cfg, basis=basis)
        np.testing.assert_array_equal(mu, solve_mu(h, u, w, cfg))
        got = _solve_in_basis(basis, mu, column_scales(u, w, cfg))
        want = reconstruct_v(h, u, w, mu, cfg)
        floor = 100.0 * PIVOT_RTOL * np.trace(s, axis1=1, axis2=2).real
        at_floor = np.isclose(mu, floor, rtol=1e-6, atol=0.0)
        floor_rows += int(at_floor.sum())
        for row in range(8):
            size = np.linalg.norm(want[row])
            if at_floor[row]:
                g = gains(h, want[row])
                assert np.linalg.norm(gains(h, got[row]) - g) <= 1e-12 * np.linalg.norm(g)
            assert np.linalg.norm(got[row] - want[row]) <= (
                1e-5 if at_floor[row] else 1e-12) * size
    assert (floor_rows > 0) == (k < n)


@pytest.mark.parametrize("case", ["rank deficient", "eigenvalue hit", "nan"])
def test_solve_in_basis_refuses_what_hpd_solve_refuses(case):
    # One bad row among good ones: mu = 0 on a rank-deficient S (K < N),
    # mu = -lambda_min (S + mu I singular to the bit), or a NaN mu.
    n, k = (4, 2) if case == "rank deficient" else (3, 3)
    rng = np.random.default_rng(16)
    cfg = SystemConfig(n=n, k=k, p=10.0)
    h = rand_h(rng, k, n)
    u = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
    w = rng.uniform(1.0, 5.0, size=(3, k))
    s = assemble_s(h, u, w, cfg)
    basis = _eigenbasis(s, h)
    mu = np.ones(3)
    mu[1] = {"rank deficient": 0.0, "eigenvalue hit": -basis[0][1, 0], "nan": np.nan}[case]
    with pytest.raises(SingularMatrixError):
        _solve_in_basis(basis, mu, column_scales(u, w, cfg))
    with pytest.raises(SingularMatrixError):
        hpd_solve(s + mu[:, None, None] * np.eye(n), h.T)
    _solve_in_basis(basis, np.ones(3), column_scales(u, w, cfg))  # the good rows pass


def test_start_portfolio_beamformers():
    rng = np.random.default_rng(5)
    cfg = SystemConfig(n=3, k=2, p=10.0)
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
    cfg = SystemConfig(n=3, k=1, p=10.0)
    for _ in range(10):
        h = rand_h(rng, 1, 3)
        res = wmmse_solve(h, cfg)
        bound = np.log2(1.0 + cfg.p * np.linalg.norm(h) ** 2 / cfg.sigma2)
        assert res.wsr_trace[-1] <= bound + 1e-9
        assert res.wsr_trace[-1] == pytest.approx(bound, abs=1e-6)


def test_wmmse_monotone_trace_and_power():
    rng = np.random.default_rng(7)
    cfg = SystemConfig(n=3, k=3, p=10.0)
    for trial in range(20):
        h = rand_h(rng, 3, 3)
        res = wmmse_solve(h, cfg)
        trace = np.asarray(res.wsr_trace)
        assert (np.diff(trace) >= -1e-8).all()
        assert total_power(res.v) <= cfg.p * (1.0 + 1e-9)
        assert res.iterations <= 300


def test_wmmse_fixed_point():
    # At convergence the (u, w, mu) triple of the returned beamformer
    # regenerates it.
    rng = np.random.default_rng(8)
    cfg = SystemConfig(n=3, k=3, p=10.0)
    h = rand_h(rng, 3, 3)
    res = wmmse_solve(h, cfg, eps=1e-12, max_iters=2000)
    u, w = compute_u(h, res.v), compute_w(h, res.v)
    (mu,) = solve_mu(h, u[None], w[None], cfg)
    v_back = reconstruct_v(h, u, w, mu, cfg)
    assert np.abs(v_back - res.v).max() < 1e-5


def test_directions_lambda_zero_are_unit_matched_filters():
    # lam = 0 gives the matched-filter (MRT) directions, each of unit norm
    rng = np.random.default_rng(10)
    cfg = SystemConfig(n=3, k=2, p=10.0)
    h = rand_h(rng, 2, 3)
    d = _directions(h, np.zeros(2), cfg)
    for k in range(2):
        assert np.linalg.norm(d[:, k]) == pytest.approx(1.0, rel=1e-12)
        c = np.vdot(h[k], d[:, k]) / np.linalg.norm(h[k])
        assert abs(c) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("n, k", [(2, 2), (3, 3), (4, 2), (2, 3)])
def test_directions_of_a_grid_equal_its_one_row_calls(n, k):
    # The oracle solves its whole dual grid in one call: each point's
    # directions must be the bits of a call on that point alone, and every
    # column of unit norm.
    rng = np.random.default_rng(40 + n + k)
    cfg = SystemConfig(n=n, k=k, p=10.0)
    h = rand_h(rng, k, n)
    grid = _simplex_grid(k, cfg.p, 6)
    d = _directions(h, grid, cfg)
    assert d.shape == (len(grid), n, k)
    np.testing.assert_array_equal(d, np.stack([_directions(h, lam, cfg) for lam in grid]))
    np.testing.assert_allclose(np.linalg.norm(d, axis=-2), 1.0, rtol=1e-12)


def test_grid_oracle_k1_closed_form():
    rng = np.random.default_rng(11)
    cfg = SystemConfig(n=2, k=1, p=10.0)
    h = rand_h(rng, 1, 2)
    res = grid_oracle(h, cfg, grid_steps=11)
    bound = np.log2(1.0 + cfg.p * np.linalg.norm(h) ** 2 / cfg.sigma2)
    assert res == pytest.approx(bound, abs=1e-9)


def test_grid_oracle_refinement_monotone():
    rng = np.random.default_rng(12)
    cfg = SystemConfig(n=2, k=2, p=10.0)
    h = rand_h(rng, 2, 2)
    values = [grid_oracle(h, cfg, grid_steps=s) for s in (6, 11, 21, 41)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_simplex_grid_k3_holds_each_point_once():
    parts = 10
    grid = _simplex_grid(3, 10.0, parts + 1)
    assert grid.shape == (math.comb(parts + 2, 2), 3)
    assert len({tuple(row) for row in np.rint(grid).astype(int)}) == len(grid)
    assert np.all(grid >= 0.0)
    np.testing.assert_allclose(grid.sum(axis=1), 10.0, rtol=1e-12)


def test_grid_oracle_k3_equals_a_plain_search():
    # Every (lam, p) pair of the K = 3 grid, one wsr call each: the oracle's
    # batched search must find the same best rate.
    rng = np.random.default_rng(14)
    cfg = SystemConfig(n=3, k=3, p=10.0)
    h = rand_h(rng, 3, 3)
    grid = _simplex_grid(3, cfg.p, 11)
    best = -np.inf
    for lam in grid:
        a = np.eye(3) + hermitian_rank1_sum(lam / cfg.sigma2, h)
        for p in grid:
            x = np.linalg.solve(a, h.T)
            v = x / np.linalg.norm(x, axis=0) * np.sqrt(p)
            best = max(best, float(wsr(h, v, cfg)))
    assert grid_oracle(h, cfg, grid_steps=11) == pytest.approx(best, rel=1e-12)


def test_grid_oracle_capability_limits():
    cfg4 = SystemConfig(n=2, k=4, p=10.0)
    with pytest.raises(CapabilityError):
        grid_oracle(rand_h(np.random.default_rng(0), 4, 2), cfg4)
    cfg2 = SystemConfig(n=2, k=2, p=10.0)
    with pytest.raises(ValueError):
        grid_oracle(rand_h(np.random.default_rng(0), 2, 2), cfg2, grid_steps=3)


def test_wmmse_not_below_oracle_small():
    # The full 20-instance comparison runs in the acceptance suite; this is
    # the smoke-sized version.
    rng = np.random.default_rng(13)
    cfg = SystemConfig(n=2, k=2, p=10.0)
    for _ in range(5):
        h = rand_h(rng, 2, 2)
        ours = wmmse_solve(h, cfg).wsr_trace[-1]
        ref = grid_oracle(h, cfg, grid_steps=41)
        assert ours >= 0.99 * ref


def test_wmmse_beats_naive_starts():
    # The returned solution is at least as good as evaluating any single
    # portfolio start directly.
    rng = np.random.default_rng(14)
    cfg = SystemConfig(n=3, k=3, p=10.0)
    h = rand_h(rng, 3, 3)
    res = wmmse_solve(h, cfg)
    for maker in (mrt_beamformer, zf_beamformer):
        assert res.wsr_trace[-1] >= wsr(h, maker(h, cfg), cfg) - 1e-9


def test_wmmse_converged_flag():
    rng = np.random.default_rng(16)
    single = wmmse_solve(rand_h(rng, 1, 3), SystemConfig(n=3, k=1, p=10.0))
    assert single.converged and single.iterations < 300
    cfg = SystemConfig(n=3, k=3, p=1e4)  # 40 dB
    capped = wmmse_solve(rand_h(rng, 3, 3), cfg, max_iters=5)
    assert not capped.converged
    assert capped.iterations == 5 and len(capped.wsr_trace) == 6


def _portfolio(h, cfg, seed, restarts):
    """The starts wmmse_solve runs, in its order."""
    start_rng = np.random.default_rng(seed)
    starts = [mrt_beamformer(h, cfg), zf_beamformer(h, cfg)]
    for _ in range(restarts):
        raw = start_rng.standard_normal((cfg.n, cfg.k)) + 1j * start_rng.standard_normal(
            (cfg.n, cfg.k))
        starts.append(normalize_to_power(raw, cfg.p))
    return starts


def _reference_run(h, cfg, v0, eps=1e-8, max_iters=300):
    """The textbook WMMSE iterate for one start, each step recomputed from
    the last V: (u, w), S, mu (searched from the previous iterate's mu), the
    closed-form V (solved in the eigenbasis of S) and its rate. Stops on
    ||V_new - V||_F < eps; returns (best V, WSR trace, iterations,
    converged), the best V being the first iterate with the largest WSR."""
    v = v0[None]
    trace = [wsr(h, v, cfg)[0]]
    best_v = v[0]
    it, converged, mu = 0, False, None
    for it in range(1, max_iters + 1):
        u, w = compute_u(h, v), compute_w(h, v)
        s = assemble_s(h, u, w, cfg)
        mu = solve_mu(h, u, w, cfg, mu0=mu)
        v_new = _solve_in_basis(_eigenbasis(s, h), mu, column_scales(u, w, cfg))
        trace.append(wsr(h, v_new, cfg)[0])
        if trace[-1] > max(trace[:-1]):
            best_v = v_new[0]
        converged = np.linalg.norm(v_new - v, axis=(1, 2))[0] < eps
        v = v_new
        if converged:
            break
    return best_v, np.array(trace), it, converged


def _assert_solve_matches_reference(h, cfg, seed, restarts=3, eps=1e-8, max_iters=300):
    """wmmse_solve on the portfolio equals the reference loop of its winning
    start field by field (the winner is the first start reaching the best
    WSR). Returns the reference runs and the winner's index."""
    runs = [_reference_run(h, cfg, v0, eps, max_iters)
            for v0 in _portfolio(h, cfg, seed, restarts)]
    win = int(np.argmax([run[1].max() for run in runs]))
    got = wmmse_solve(h, cfg, seed=seed, restarts=restarts, eps=eps, max_iters=max_iters)
    np.testing.assert_array_equal(got.v, runs[win][0])
    np.testing.assert_array_equal(got.wsr_trace, runs[win][1])
    assert (got.iterations, got.converged) == (runs[win][2], runs[win][3])
    return runs, win


@pytest.mark.parametrize("snr_db", [0, 20])
def test_wmmse_solve_matches_reference_loop_to_the_bit(snr_db):
    # The solver reuses each iterate's couplings for its rate and the next
    # (u, w), and keeps only the starts still running in its batch: neither
    # may change a bit of what the step-by-step loop gives.
    rng = np.random.default_rng(20 + snr_db)
    cfg = SystemConfig(n=3, k=3, p=10.0 ** (snr_db / 10))
    stop_passes = set()
    for seed in range(3):
        runs, _ = _assert_solve_matches_reference(rand_h(rng, 3, 3), cfg, seed)
        stop_passes |= {run[2] for run in runs}
    if snr_db == 0:
        assert len(stop_passes) > 3  # starts stop at different passes
    else:
        assert 300 in stop_passes  # and some run to max_iters


@pytest.mark.parametrize("snr_db, kwargs, stops", [
    (0, {"max_iters": 0}, {(0, False)}),
    (20, {"max_iters": 1}, {(1, False)}),
    (10, {"eps": np.inf}, {(1, True)}),  # every start stops on pass 1
    (10, {"eps": 0.0, "max_iters": 12}, {(12, False)}),  # all from the cap
    (0, {"restarts": 0}, None),  # matched filter and zero forcing only
])
def test_wmmse_solve_matches_reference_loop_at_the_edges(snr_db, kwargs, stops):
    rng = np.random.default_rng(30 + snr_db)
    cfg = SystemConfig(n=3, k=3, p=10.0 ** (snr_db / 10))
    for seed in range(2):
        runs, _ = _assert_solve_matches_reference(rand_h(rng, 3, 3), cfg, seed, **kwargs)
        assert stops is None or {(run[2], run[3]) for run in runs} == stops


def test_wmmse_solve_keeps_the_best_of_a_winner_that_stops_first():
    # On this 0 dB channel the winning start (the second random one) stops
    # 6 passes before any other: the starts that run on after it must not
    # overwrite its best iterate.
    cfg = SystemConfig(n=3, k=3, p=1.0)
    runs, win = _assert_solve_matches_reference(rand_h(np.random.default_rng(4), 3, 3),
                                                cfg, seed=0)
    assert runs[win][2] < min(run[2] for i, run in enumerate(runs) if i != win)


def test_wmmse_solve_evaluates_couplings_once_per_iterate(monkeypatch):
    # One objective.gains call for the starts, then one per loop pass on the
    # new iterates of the starts still running: their rate and the next
    # (u, w) come from it. Pass 1 searches mu cold; every later pass starts
    # each running start's search at its mu of the pass before, cut with
    # the rows of the starts that stopped.
    rng = np.random.default_rng(18)
    cfg = SystemConfig(n=3, k=3, p=1.0)
    h = rand_h(rng, 3, 3)
    # pass i runs the starts that stop on pass i or later
    stops = np.array([_reference_run(h, cfg, v0)[2] for v0 in _portfolio(h, cfg, 0, 3)])
    gains_rows, searches = [], []
    real_gains, real_solve_mu = objective.gains, wmmse.solve_mu

    def gains(h, v):
        gains_rows.append(len(v))
        return real_gains(h, v)

    def solve_mu(h, u, w, cfg, mu0=None, **kwargs):
        mu = real_solve_mu(h, u, w, cfg, mu0=mu0, **kwargs)
        searches.append((mu0, mu))
        return mu

    monkeypatch.setattr(objective, "gains", gains)
    monkeypatch.setattr(wmmse, "solve_mu", solve_mu)
    wmmse_solve(h, cfg)
    pass_rows = [len(mu) for _, mu in searches]
    assert gains_rows == [5] + pass_rows
    assert pass_rows[-1] < 5  # starts stopped on the way
    assert searches[0][0] is None and len(searches) == stops.max()
    for it in range(2, len(searches) + 1):
        kept = stops[stops >= it - 1] >= it
        np.testing.assert_array_equal(searches[it - 1][0], searches[it - 2][1][kept])
