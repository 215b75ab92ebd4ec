"""Rate objective tests.

The worked 2x2 example is derived by hand: both users share the channel
e_0 and each beamformer column is e_0, so every user sees unit signal and
unit interference, giving SINR = 1/(1+1) = 0.5 at unit noise.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metabeam.objective import SystemConfig, all_sinr, sum_rate_loss, wsr


def rand_hv(rng, n, k):
    h = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    v = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return h, v


def test_sinr_no_interference():
    # Orthogonal users with diagonal beamforming: SINR_k = |h_k^H v_k|^2 (unit noise).
    h = np.eye(2, dtype=complex)
    v = np.diag([2.0, 3.0]).astype(complex)
    np.testing.assert_allclose(all_sinr(h, v), [4.0, 9.0], rtol=0, atol=1e-15)


def test_sinr_worked_interference_example():
    cfg = SystemConfig(n=2, k=2, p=10.0)
    h = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)  # rows h_k
    v = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)  # columns v_k
    got = all_sinr(h, v)
    np.testing.assert_allclose(got, [0.5, 0.5], atol=1e-15)
    assert wsr(h, v, cfg) == pytest.approx(2.0 * np.log2(1.5), abs=1e-12)


def test_sinr_phase_invariance():
    # A global phase on a beamformer column cannot change any magnitude.
    rng = np.random.default_rng(0)
    h, v = rand_hv(rng, 3, 3)
    rotated = v * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(1, 3)))
    np.testing.assert_allclose(
        all_sinr(h, v), all_sinr(h, rotated), rtol=1e-12
    )


def test_wsr_k1_mrt_closed_form():
    rng = np.random.default_rng(1)
    cfg = SystemConfig(n=3, k=1, p=10.0)
    for _ in range(20):
        h = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        # Signal is h^H v, so the matched filter is v proportional to h.
        v = np.sqrt(cfg.p) * h.T / np.linalg.norm(h)
        expected = np.log2(1.0 + cfg.p * np.linalg.norm(h) ** 2 / cfg.sigma2)
        assert wsr(h, v, cfg) == pytest.approx(expected, rel=1e-12)


def test_alpha_weights_scale_rates():
    rng = np.random.default_rng(2)
    h, v = rand_hv(rng, 2, 2)
    weighted = SystemConfig(n=2, k=2, p=10.0, alpha=(2.0, 0.5))
    rates = np.log2(1.0 + all_sinr(h, v))
    assert wsr(h, v, weighted) == pytest.approx(2.0 * rates[0] + 0.5 * rates[1], rel=1e-12)


def test_loss_zero_beamformer():
    h = np.ones((2, 2), dtype=complex)
    assert sum_rate_loss(h, np.zeros((2, 2), dtype=complex)) == 0.0


def test_loss_single_user_unit_sinr():
    # SINR = 1 gives loss = -(1/K) ln(2) = -ln 2.
    h = np.array([[1.0 + 0j]])
    v = np.array([[1.0 + 0j]])
    assert sum_rate_loss(h, v) == pytest.approx(-np.log(2.0), abs=1e-15)


def test_loss_wsr_base_change():
    # With unit weights, wsr = -K * loss / ln 2 for the corrected variant.
    rng = np.random.default_rng(3)
    cfg = SystemConfig(n=3, k=3, p=10.0)
    for _ in range(200):
        h, v = rand_hv(rng, 3, 3)
        loss = sum_rate_loss(h, v, variant="corrected")
        assert wsr(h, v, cfg) == pytest.approx(-3.0 * loss / np.log(2.0), rel=1e-10)


def test_loss_variants_differ_with_interference():
    rng = np.random.default_rng(4)
    h, v = rand_hv(rng, 2, 2)
    a = sum_rate_loss(h, v, variant="corrected")
    b = sum_rate_loss(h, v, variant="verbatim")
    assert a != b
    # Single user has no interference term, so the variants coincide.
    h1, v1 = rand_hv(rng, 2, 1)
    assert sum_rate_loss(h1, v1, "corrected") == pytest.approx(
        sum_rate_loss(h1, v1, "verbatim"), rel=1e-15
    )
    with pytest.raises(ValueError):
        sum_rate_loss(h, v, variant="bogus")


def test_batch_matches_scalar_loop():
    # Leading batch axes give the one-channel results of each (channel, V)
    # pair; a single channel broadcasts against a batch of beamformers.
    rng = np.random.default_rng(5)
    cfg = SystemConfig(n=3, k=2, p=10.0)
    hb = rng.standard_normal((2, 4, 2, 3)) + 1j * rng.standard_normal((2, 4, 2, 3))
    vb = rng.standard_normal((2, 4, 3, 2)) + 1j * rng.standard_normal((2, 4, 3, 2))
    sinrs = all_sinr(hb, vb)
    wsrs = wsr(hb, vb, cfg)
    shared = wsr(hb[0, 0], vb, cfg)
    assert sinrs.shape == (2, 4, 2) and wsrs.shape == shared.shape == (2, 4)
    for variant in ("corrected", "verbatim"):
        losses = sum_rate_loss(hb, vb, variant)
        for i, j in np.ndindex(2, 4):
            assert losses[i, j] == pytest.approx(
                sum_rate_loss(hb[i, j], vb[i, j], variant), rel=1e-12
            )
    for i, j in np.ndindex(2, 4):
        np.testing.assert_allclose(sinrs[i, j], all_sinr(hb[i, j], vb[i, j]), rtol=1e-12)
        assert wsrs[i, j] == pytest.approx(wsr(hb[i, j], vb[i, j], cfg), rel=1e-12)
        assert shared[i, j] == pytest.approx(wsr(hb[0, 0], vb[i, j], cfg), rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        SystemConfig(n=0, k=1, p=1.0)
    with pytest.raises(ValueError):
        SystemConfig(n=1, k=0, p=1.0)
    with pytest.raises(ValueError):
        SystemConfig(n=1, k=1, p=-1.0)
    with pytest.raises(ValueError):
        SystemConfig(n=1, k=1, p=1e101)  # beyond linalg.MAX_POWER
    with pytest.raises(ValueError):
        SystemConfig(n=1, k=1, p=float("nan"))
    with pytest.raises(ValueError):
        SystemConfig(n=1, k=2, p=1.0, alpha=(1.0,))
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="finite nonnegative"):
            SystemConfig(n=1, k=2, p=1.0, alpha=(bad, 1.0))
    with pytest.raises(ValueError, match="at least one positive"):
        SystemConfig(n=1, k=2, p=1.0, alpha=(0.0, 0.0))
    assert SystemConfig(n=1, k=2, p=1.0, alpha=(0.0, 2.5)).alpha == (0.0, 2.5)


def test_noise_power_is_the_unit_not_a_field():
    # Powers are in units of the noise power: sigma2 is a class attribute
    # fixed at 1, not a field a config could set.
    with pytest.raises(TypeError):
        SystemConfig(n=1, k=1, sigma2=2.0)
    assert SystemConfig.sigma2 == 1.0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 4), k=st.integers(1, 4))
def test_sign_properties(seed, n, k):
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(n=n, k=k, p=10.0)
    h, v = rand_hv(rng, n, k)
    s = all_sinr(h, v)
    assert (s >= 0).all()
    assert wsr(h, v, cfg) >= 0.0
    assert sum_rate_loss(h, v) <= 0.0
    assert sum_rate_loss(h, v, variant="verbatim") <= 0.0
