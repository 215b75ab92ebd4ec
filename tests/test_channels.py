"""Fading-sample generator and dataset-format tests.

Moment targets are analytic: every family is normalized to E|h|^2 = 1, the
Rician mean is sqrt(kappa/(kappa+1)), and the Nakagami envelope power has
variance 1/m. Distribution identities are checked with two-sample KS tests.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from metabeam.channels import (
    ChannelModelSpec,
    make_mixed_dataset,
    read_dataset,
    sample_channels,
    task_from_dataset,
    write_dataset,
)
from metabeam.errors import DataFormatError

RAYLEIGH = ChannelModelSpec("rayleigh")


def test_shapes_and_dtype():
    rng = np.random.default_rng(0)
    h = sample_channels(rng, RAYLEIGH, 7, 3, 2)
    assert h.shape == (7, 2, 3) and h.dtype == np.complex128


def test_same_seed_same_samples():
    for spec in (RAYLEIGH, ChannelModelSpec("rician", kappa=3.0),
                 ChannelModelSpec("nakagami", m=2.0)):
        a = sample_channels(np.random.default_rng(42), spec, 5, 3, 3)
        b = sample_channels(np.random.default_rng(42), spec, 5, 3, 3)
        np.testing.assert_array_equal(a, b)


def test_rayleigh_moments():
    rng = np.random.default_rng(1)
    h = sample_channels(rng, RAYLEIGH, 20000, 2, 2).ravel()
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)
    assert abs(np.mean(h)) < 0.01
    # Circular symmetry: real and imaginary parts each carry half the power.
    assert np.mean(h.real**2) == pytest.approx(0.5, abs=0.02)
    assert np.mean(h.imag**2) == pytest.approx(0.5, abs=0.02)


def test_rician_moments():
    kappa = 3.0
    rng = np.random.default_rng(2)
    h = sample_channels(rng, ChannelModelSpec("rician", kappa=kappa), 20000, 2, 2).ravel()
    assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=0.02)
    # Deterministic line-of-sight term sqrt(kappa/(kappa+1)), real-valued.
    assert np.mean(h.real) == pytest.approx(np.sqrt(kappa / (kappa + 1.0)), abs=0.01)
    assert abs(np.mean(h.imag)) < 0.01


def test_rician_huge_kappa_collapses_to_los():
    rng = np.random.default_rng(3)
    h = sample_channels(rng, ChannelModelSpec("rician", kappa=1e9), 1000, 2, 2)
    assert np.abs(h - 1.0).max() < 1e-3


def test_nakagami_moments():
    for m in (1.0, 10.0):
        rng = np.random.default_rng(4)
        h = sample_channels(rng, ChannelModelSpec("nakagami", m=m), 250000, 2, 2).ravel()
        p = np.abs(h) ** 2
        assert np.mean(p) == pytest.approx(1.0, abs=0.01)
        # Envelope power is Gamma(m, 1/m): variance 1/m.
        assert np.var(p) == pytest.approx(1.0 / m, abs=0.01)
        # Phase is uniform, so the complex mean vanishes.
        assert abs(np.mean(h)) < 0.01


def test_nakagami_m1_equals_rayleigh_distribution():
    n = 100000
    a = np.abs(sample_channels(np.random.default_rng(5), RAYLEIGH, n, 1, 1)).ravel()
    b = np.abs(
        sample_channels(
            np.random.default_rng(6), ChannelModelSpec("nakagami", m=1.0), n, 1, 1
        )
    ).ravel()
    assert stats.ks_2samp(a, b).pvalue > 0.01


def test_rician_kappa0_equals_rayleigh_distribution():
    n = 100000
    a = sample_channels(np.random.default_rng(7), RAYLEIGH, n, 1, 1).ravel()
    b = sample_channels(
        np.random.default_rng(8), ChannelModelSpec("rician", kappa=0.0), n, 1, 1
    ).ravel()
    assert stats.ks_2samp(np.abs(a), np.abs(b)).pvalue > 0.01
    assert stats.ks_2samp(a.real, b.real).pvalue > 0.01


def test_spec_validation():
    with pytest.raises(ValueError):
        ChannelModelSpec("rician", kappa=-0.5)
    with pytest.raises(ValueError):
        ChannelModelSpec("nakagami", m=0.0)
    with pytest.raises(ValueError):
        ChannelModelSpec("lognormal")


def test_task_from_dataset_draws_without_replacement():
    rng = np.random.default_rng(10)
    data = sample_channels(rng, RAYLEIGH, 30, 2, 2)
    task = task_from_dataset(np.random.default_rng(0), data, 5, 7)
    rows = data.reshape(30, -1)
    picked = np.concatenate([task.support, task.query]).reshape(12, -1)
    matches = [int(np.where((rows == p).all(axis=1))[0][0]) for p in picked]
    assert len(set(matches)) == 12, "all drawn samples distinct dataset rows"
    with pytest.raises(ValueError):
        task_from_dataset(np.random.default_rng(0), data, 20, 20)


def test_mixed_dataset_counts_and_shuffle():
    # 0.5/0.5 over 10 with an effectively deterministic second family: the
    # near-LOS rows are identifiable, so the block sizes are observable.
    mix = [(RAYLEIGH, 0.5), (ChannelModelSpec("rician", kappa=1e9), 0.5)]
    data = make_mixed_dataset(np.random.default_rng(11), mix, 10, 2, 2)
    assert data.shape == (10, 2, 2)
    near_los = np.abs(data - 1.0).max(axis=(1, 2)) < 1e-3
    assert near_los.sum() == 5
    again = make_mixed_dataset(np.random.default_rng(11), mix, 10, 2, 2)
    np.testing.assert_array_equal(data, again)


def test_mixed_dataset_largest_remainder_counts():
    # fractions (0.4, 0.3, 0.3) of 11 -> ideal (4.4, 3.3, 3.3) -> floors
    # (4, 3, 3) sum to 10; the one leftover goes to the largest remainder
    # 0.4, so the identifiable near-LOS family gets 5 rows.
    mix = [
        (ChannelModelSpec("rician", kappa=1e9), 0.4),
        (RAYLEIGH, 0.3),
        (ChannelModelSpec("nakagami", m=1.0), 0.3),
    ]
    data = make_mixed_dataset(np.random.default_rng(12), mix, 11, 1, 1)
    near_los = np.abs(data - 1.0).max(axis=(1, 2)) < 1e-3
    assert near_los.sum() == 5


def test_mixed_dataset_fraction_validation():
    with pytest.raises(ValueError):
        make_mixed_dataset(np.random.default_rng(0), [(RAYLEIGH, 0.7)], 10, 2, 2)
    with pytest.raises(ValueError):
        make_mixed_dataset(
            np.random.default_rng(0),
            [(RAYLEIGH, 1.5), (RAYLEIGH, -0.5)],
            10, 2, 2,
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    count=st.integers(1, 40),
    weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=4),
)
def test_mixed_dataset_total_count_property(seed, count, weights):
    total = sum(weights)
    mix = [(RAYLEIGH, w / total) for w in weights]
    data = make_mixed_dataset(np.random.default_rng(seed), mix, count, 2, 2)
    assert data.shape == (count, 2, 2)


def test_dataset_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    data = sample_channels(rng, RAYLEIGH, 17, 3, 2)
    path = tmp_path / "d.bin"
    write_dataset(path, data)
    back = read_dataset(path)
    np.testing.assert_array_equal(back, data)
    assert back.dtype == np.complex128


def test_dataset_header_layout(tmp_path):
    data = sample_channels(np.random.default_rng(14), RAYLEIGH, 2, 3, 2)
    path = tmp_path / "d.bin"
    write_dataset(path, data)
    raw = path.read_bytes()
    assert raw[:5] == b"MMLC1"
    n, k, count = np.frombuffer(raw[5:17], dtype="<u4")
    assert (n, k, count) == (3, 2, 2)
    assert len(raw) == 17 + 2 * 2 * 3 * 16  # header + count*K*N c16 payload


def test_dataset_corruption_detected(tmp_path):
    data = sample_channels(np.random.default_rng(15), RAYLEIGH, 3, 2, 2)
    path = tmp_path / "d.bin"
    write_dataset(path, data)
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "m.bin"
    bad_magic.write_bytes(b"XXXXX" + bytes(raw[5:]))
    with pytest.raises(DataFormatError):
        read_dataset(bad_magic)

    truncated = tmp_path / "t.bin"
    truncated.write_bytes(bytes(raw[:-8]))
    with pytest.raises(DataFormatError):
        read_dataset(truncated)

    padded = tmp_path / "p.bin"
    padded.write_bytes(bytes(raw) + b"\x00" * 4)
    with pytest.raises(DataFormatError):
        read_dataset(padded)
