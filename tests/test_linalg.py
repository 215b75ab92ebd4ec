"""Complex linear-algebra kernel tests.

Hand-derived expected values come first in each test; the code under test is
only called afterwards.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from metabeam.errors import DegenerateInputError, SingularMatrixError
from metabeam.linalg import (
    hermitian_rank1_sum,
    hpd_solve,
    normalize_to_power,
    total_power,
)


def test_rank1_sum_single_vector():
    # h = [1, i]: h h^H = [[1, -i], [i, 1]], scaled by the coefficient 2.
    expected = 2.0 * np.array([[1.0, -1j], [1j, 1.0]])
    got = hermitian_rank1_sum(np.array([2.0]), np.array([[1.0, 1j]]))
    np.testing.assert_allclose(got, expected, atol=0)


def test_rank1_sum_orthogonal_vectors():
    # Unit vectors e_0 and (1+i)e_1/sqrt(2) give diag(1, 2) for coeffs (1, 2):
    # |(1+i)/sqrt(2)|^2 = 1, so the second term is 2 e_1 e_1^H.
    vecs = np.array([[1.0, 0.0], [0.0, (1.0 + 1j) / np.sqrt(2.0)]])
    got = hermitian_rank1_sum(np.array([1.0, 2.0]), vecs)
    np.testing.assert_allclose(got, np.diag([1.0, 2.0]).astype(complex), atol=1e-15)


def test_rank1_sum_exactly_hermitian():
    rng = np.random.default_rng(7)
    for _ in range(20):
        k, n = rng.integers(1, 5, size=2)
        vecs = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        coeffs = rng.uniform(0.0, 3.0, size=k)
        s = hermitian_rank1_sum(coeffs, vecs)
        assert np.array_equal(s, s.conj().T), "must be Hermitian to the bit"
        assert np.linalg.eigvalsh(s).min() >= -1e-12


def test_rank1_sum_empty_needs_n():
    got = hermitian_rank1_sum(np.zeros(0), np.zeros((0, 3), dtype=complex), n=3)
    np.testing.assert_array_equal(got, np.zeros((3, 3), dtype=complex))
    with pytest.raises(ValueError):
        hermitian_rank1_sum(np.zeros(0), np.zeros((0, 3), dtype=complex))


def test_rank1_sum_length_mismatch():
    with pytest.raises(ValueError):
        hermitian_rank1_sum(np.ones(2), np.ones((3, 2), dtype=complex))


def test_hpd_solve_identity_shift():
    # A = 0, mu = 1 makes the system (0 + I) x = b, so x = b.
    b = np.array([[1.0 + 2j], [3.0 - 1j]])
    x = hpd_solve(np.zeros((2, 2), dtype=complex), 1.0, b)
    np.testing.assert_allclose(x, b, atol=0)


def test_hpd_solve_diagonal():
    # A = diag(1, 3), mu = 1: x = b / [2, 4].
    a = np.diag([1.0, 3.0]).astype(complex)
    b = np.array([[4.0], [8.0]], dtype=complex)
    np.testing.assert_allclose(hpd_solve(a, 1.0, b), [[2.0], [2.0]], atol=1e-15)


def test_hpd_solve_residual():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = g @ g.conj().T + 0.1 * np.eye(n)
        b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        mu = float(rng.uniform(0.0, 2.0))
        x = hpd_solve(a, mu, b)
        resid = np.linalg.norm((a + mu * np.eye(n)) @ x - b)
        assert resid <= 1e-10 * max(np.linalg.norm(b), 1.0)


def test_hpd_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        hpd_solve(np.zeros((2, 2), dtype=complex), 0.0, np.ones((2, 1), dtype=complex))
    h = np.array([[1.0], [1j]])
    rank1 = h @ h.conj().T  # rank 1 in a 2-dim space
    with pytest.raises(SingularMatrixError):
        hpd_solve(rank1, 0.0, np.ones((2, 1), dtype=complex))
    # The factorization succeeds, but the pivot 1e-13 is below 1e-12 * trace.
    with pytest.raises(SingularMatrixError):
        hpd_solve(np.diag([1.0, 1e-13]).astype(complex), 0.0, np.ones(2))
    # A NaN entry factors into NaN pivots, which fail the pivot rule.
    with pytest.raises(SingularMatrixError):
        hpd_solve(np.diag([np.nan, 1.0]).astype(complex), 0.1, np.ones(2))


def test_total_power_examples():
    assert total_power(np.array([[1.0], [1j]])) == pytest.approx(2.0, abs=0)
    assert total_power(np.zeros((3, 2), dtype=complex)) == 0.0


def test_normalize_to_power_basics():
    rng = np.random.default_rng(3)
    v = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    out = normalize_to_power(v, 5.0)
    assert total_power(out) == pytest.approx(5.0, rel=1e-12)
    # Direction preserved: out is a positive real multiple of v.
    ratio = out / v
    np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-12)
    assert ratio.flat[0].real > 0 and abs(ratio.flat[0].imag) < 1e-15


def test_normalize_to_power_huge_entries():
    # ||V||^2 = 2e400 overflows to inf, and p / inf would be 0.
    out = normalize_to_power(np.array([[1e200, 1e200j]]), 101.0)
    np.testing.assert_allclose(out, np.sqrt(101.0 / 2.0) * np.array([[1.0, 1j]]),
                               rtol=1e-15)
    with pytest.raises(DegenerateInputError):
        normalize_to_power(np.array([[np.inf, 1.0]]), 1.0)


def test_normalize_to_power_errors():
    with pytest.raises(DegenerateInputError):
        normalize_to_power(np.zeros((2, 2), dtype=complex), 1.0)
    with pytest.raises(ValueError):
        normalize_to_power(np.ones((2, 2), dtype=complex), 0.0)
    with pytest.raises(ValueError):
        normalize_to_power(np.ones((2, 2), dtype=complex), -1.0)


finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(
    entries=st.lists(st.tuples(finite, finite), min_size=1, max_size=12),
    target=st.floats(min_value=1e-6, max_value=1e6),
)
# ||V||^2 = 5.6e-307 makes target / ||V||^2 overflow; 1e-310 is a subnormal
# power with few significant bits.
@example(entries=[(0.0, 7.486837958242181e-154)], target=101.0)
@example(entries=[(1e-155, 0.0), (0.0, 3e-160)], target=101.0)
def test_normalize_power_property(entries, target):
    v = np.array([complex(re, im) for re, im in entries]).reshape(-1, 1)
    if total_power(v) == 0.0:
        with pytest.raises(DegenerateInputError):
            normalize_to_power(v, target)
        return
    out = normalize_to_power(v, target)
    assert total_power(out) == pytest.approx(target, rel=1e-9)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    k=st.integers(1, 4),
    n=st.integers(1, 4),
)
def test_rank1_sum_psd_property(seed, k, n):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    coeffs = rng.uniform(0.0, 10.0, size=k)
    s = hermitian_rank1_sum(coeffs, vecs)
    assert np.array_equal(s, s.conj().T)
    assert np.linalg.eigvalsh(s).min() >= -1e-10 * max(1.0, float(np.trace(s).real))


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    batch=st.integers(1, 5),
    k=st.integers(1, 4),
    n=st.integers(1, 4),
)
def test_rank1_sum_batched_rows_match_2d_calls(seed, batch, k, n):
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    coeffs = rng.uniform(0.0, 10.0, size=(batch, k))
    s = hermitian_rank1_sum(coeffs, vecs)
    assert s.shape == (batch, n, n)
    for row in range(batch):
        np.testing.assert_array_equal(s[row], hermitian_rank1_sum(coeffs[row], vecs))
        loop = sum(c * np.outer(v, v.conj()) for c, v in zip(coeffs[row], vecs))
        np.testing.assert_allclose(s[row], loop, rtol=1e-12, atol=1e-12)
    # One set of vectors per row, (batch, K, N).
    rows = rng.standard_normal((batch, k, n)) + 1j * rng.standard_normal((batch, k, n))
    s = hermitian_rank1_sum(coeffs, rows)
    assert s.shape == (batch, n, n)
    for row in range(batch):
        np.testing.assert_array_equal(s[row], hermitian_rank1_sum(coeffs[row], rows[row]))


def test_rank1_sum_batched_validation():
    vecs = np.ones((2, 3), dtype=complex)
    with pytest.raises(ValueError):
        hermitian_rank1_sum(np.ones((4, 3)), vecs)  # K mismatch on the last axis
    with pytest.raises(ValueError):
        hermitian_rank1_sum(-np.ones((4, 2)), vecs)
    got = hermitian_rank1_sum(np.zeros((4, 0)), np.zeros((0, 3), dtype=complex), n=3)
    np.testing.assert_array_equal(got, np.zeros((4, 3, 3), dtype=complex))


def test_hpd_solve_batched_rows_match_2d_calls():
    rng = np.random.default_rng(12)
    n, batch = 3, 5
    g = rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
    a = g @ np.swapaxes(g, 1, 2).conj() + 0.1 * np.eye(n)
    b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    mu = rng.uniform(0.0, 2.0, size=batch)
    x = hpd_solve(a, mu, b)
    assert x.shape == (batch, n, 2)
    for row in range(batch):
        np.testing.assert_array_equal(x[row], hpd_solve(a[row], mu[row], b))
    # A scalar shift applies to every matrix.
    x0 = hpd_solve(a, 0.5, b)
    for row in range(batch):
        np.testing.assert_array_equal(x0[row], hpd_solve(a[row], 0.5, b))


def test_hpd_solve_batched_raises_on_one_singular_row():
    a = np.stack([np.eye(2), np.eye(2)]).astype(complex)
    b = np.ones((2, 1), dtype=complex)
    hpd_solve(a, 0.0, b)
    h = np.array([[1.0], [1j]])
    a[1] = h @ h.conj().T  # rank 1: the factorization fails at its second pivot
    with pytest.raises(SingularMatrixError):
        hpd_solve(a, 0.0, b)
    a[1] = -np.eye(2)  # indefinite: the factorization itself fails
    with pytest.raises(SingularMatrixError):
        hpd_solve(a, 0.0, b)
