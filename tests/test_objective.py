"""Rate objective tests.

The worked 2x2 example is derived by hand: both users share the channel
e_0 and each beamformer column is e_0, so every user sees unit signal and
unit interference, giving SINR = 1/(1+1) = 0.5 at unit noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metabeam import objective
from metabeam.objective import (
    SystemConfig,
    all_sinr,
    batch_all_sinr,
    batch_sample_losses,
    batch_wsr,
    sinr,
    sum_rate_loss,
    wsr,
)


def rand_hv(rng, n, k):
    h = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return h, v


def test_sinr_no_interference():
    # Orthogonal users with diagonal beamforming: SINR_k = |h_k^H v_k|^2 / s2.
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    h = np.eye(2, dtype=complex)
    v = np.diag([2.0, 3.0]).astype(complex)
    assert sinr(h, v, cfg, 0) == pytest.approx(4.0, abs=1e-15)
    assert sinr(h, v, cfg, 1) == pytest.approx(9.0, abs=1e-15)


def test_sinr_worked_interference_example():
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    h = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)  # rows h_k
    v = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # columns v_k
    got = all_sinr(h, v, cfg)
    np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-15)
    assert wsr(h, v, cfg) == pytest.approx(2.0 * np.log2(1.5), abs=1e-12)


def test_sinr_phase_invariance():
    # A global phase on a beamformer column cannot change any magnitude.
    rng = np.random.default_rng(0)
    cfg = SystemConfig(n=3, k=3, sigma2=1.0, p=10.0)
    h, v = rand_hv(rng, 3, 3)
    rotated = v * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(1, 3)))
    np.testing.assert_allclose(
        all_sinr(h, v, cfg), all_sinr(h, rotated, cfg), rtol=1e-12
    )


def test_wsr_k1_mrt_closed_form():
    rng = np.random.default_rng(1)
    cfg = SystemConfig(n=3, k=1, sigma2=1.0, p=10.0)
    for _ in range(20):
        h = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        # Signal is h^H v, so the matched filter is v proportional to h.
        v = np.sqrt(cfg.p) * h.T / np.linalg.norm(h)
        expected = np.log2(1.0 + cfg.p * np.linalg.norm(h) ** 2 / cfg.sigma2)
        assert wsr(h, v, cfg) == pytest.approx(expected, rel=1e-12)


def test_alpha_weights_scale_rates():
    rng = np.random.default_rng(2)
    h, v = rand_hv(rng, 2, 2)
    base = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    weighted = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0, alpha=(2.0, 0.5))
    rates = np.log2(1.0 + all_sinr(h, v, base))
    assert wsr(h, v, weighted) == pytest.approx(2.0 * rates[0] + 0.5 * rates[1], rel=1e-12)


def test_loss_zero_beamformer():
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    h = np.ones((2, 2), dtype=complex)
    assert sum_rate_loss(h, np.zeros((2, 2), dtype=complex), cfg) == 0.0


def test_loss_single_user_unit_sinr():
    # SINR = 1 gives loss = -(1/K) ln(2) = -ln 2.
    cfg = SystemConfig(n=1, k=1, sigma2=1.0, p=1.0)
    h = np.array([[1.0 + 0j]])
    v = np.array([[1.0 + 0j]])
    assert sum_rate_loss(h, v, cfg) == pytest.approx(-np.log(2.0), abs=1e-15)


def test_loss_wsr_base_change():
    # With unit weights, wsr = -K * loss / ln 2 for the corrected variant.
    rng = np.random.default_rng(3)
    cfg = SystemConfig(n=3, k=3, sigma2=1.0, p=10.0)
    for _ in range(200):
        h, v = rand_hv(rng, 3, 3)
        loss = sum_rate_loss(h, v, cfg, variant="corrected")
        assert wsr(h, v, cfg) == pytest.approx(-3.0 * loss / np.log(2.0), rel=1e-10)


def test_loss_variants_differ_with_interference():
    rng = np.random.default_rng(4)
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    h, v = rand_hv(rng, 2, 2)
    a = sum_rate_loss(h, v, cfg, variant="corrected")
    b = sum_rate_loss(h, v, cfg, variant="verbatim")
    assert a != b
    # Single user has no interference term, so the variants coincide.
    cfg1 = SystemConfig(n=2, k=1, sigma2=1.0, p=10.0)
    h1, v1 = rand_hv(rng, 2, 1)
    assert sum_rate_loss(h1, v1, cfg1, "corrected") == pytest.approx(
        sum_rate_loss(h1, v1, cfg1, "verbatim"), rel=1e-15
    )
    with pytest.raises(ValueError):
        sum_rate_loss(h, v, cfg, variant="bogus")


def test_batch_matches_scalar_loop():
    rng = np.random.default_rng(5)
    cfg = SystemConfig(n=3, k=2, sigma2=1.0, p=10.0)
    hb = rng.standard_normal((8, 2, 3)) + 1j * rng.standard_normal((8, 2, 3))
    vb = rng.standard_normal((8, 3, 2)) + 1j * rng.standard_normal((8, 3, 2))
    sinrs = batch_all_sinr(hb, vb, cfg)
    wsrs = batch_wsr(hb, vb, cfg)
    losses = batch_sample_losses(hb, vb, cfg)
    for i in range(8):
        np.testing.assert_allclose(sinrs[i], all_sinr(hb[i], vb[i], cfg), rtol=1e-12)
        assert wsrs[i] == pytest.approx(wsr(hb[i], vb[i], cfg), rel=1e-12)
        assert losses[i] == pytest.approx(sum_rate_loss(hb[i], vb[i], cfg), rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(n=0, k=1, sigma2=1.0, p=1.0)
    with pytest.raises(ValueError):
        SystemConfig(n=1, k=0, sigma2=1.0, p=1.0)
    with pytest.raises(ValueError):
        SystemConfig(n=1, k=1, sigma2=0.0, p=1.0)
    with pytest.raises(ValueError):
        SystemConfig(n=1, k=1, sigma2=1.0, p=-1.0)
    with pytest.raises(ValueError):
        SystemConfig(n=1, k=2, sigma2=1.0, p=1.0, alpha=(1.0,))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 4), k=st.integers(1, 4))
def test_sign_properties(seed, n, k):
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(n=n, k=k, sigma2=1.0, p=10.0)
    h, v = rand_hv(rng, n, k)
    s = all_sinr(h, v, cfg)
    assert (s >= 0).all()
    assert wsr(h, v, cfg) >= 0.0
    assert sum_rate_loss(h, v, cfg) <= 0.0
    assert sum_rate_loss(h, v, cfg, variant="verbatim") <= 0.0
