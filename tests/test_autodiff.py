"""Tape autodiff: node gradient checks and tape invariants.

The tape's mechanics are exercised on small test-local nodes recorded with
Tape.record (square, times a constant, a bias add); grad differentiates the
sum of a loss node's entries. Analytic oracles, stated before each assertion:
- ad.mlp is the matmul/add/ReLU chain it replaces, so its value and every
  gradient equal that chain's, built node by node in the test, to the bit.
- sum(x * 3 x): d/dx = 6 x, the sum of the adjoints of both uses of x.
- Adam from a zero state at t=1 has m_hat = g and v_hat = g^2, so the first
  step is exactly theta - lr * g / (|g| + eps); from any state, each step
  equals the out-of-place textbook formula to the bit.
- For Hermitian base S, the csolve_hpd adjoint (it takes the complex
  dL/dRe X + i dL/dIm X) matches entrywise central differences on s_re,
  s_im, and mu even though single-entry perturbations are not Hermitian
  (the real parts of the two sensitivity expressions coincide when
  S = S^H).
"""

import gc
import weakref

import numpy as np
import pytest

from metabeam import autodiff as ad
from metabeam.errors import SingularMatrixError
from metabeam.nn import AdamState, adam_step, sgd_step


def rand(rng, *shape):
    return rng.standard_normal(shape)


def square(tape, a):
    """Test-local node a^2, adjoint 2 a g."""
    return tape.record(a.value * a.value, (a,), lambda g: (2.0 * a.value * g,), "square")


def abs_square(tape, a):
    """Test-local real node |a|^2 of a complex node; its complex adjoint
    dL/dRe a + i dL/dIm a is 2 a g."""
    return tape.record(np.abs(a.value) ** 2, (a,), lambda g: (2.0 * a.value * g,),
                       "abs_square")


def times(tape, a, c):
    """Test-local node a * c for a constant array c, adjoint c g."""
    return tape.record(a.value * c, (a,), lambda g: (g * c,), "times")


def add_bias(tape, a, b):
    """Test-local node a + b for a (..., B, o) and a bias b of shape (1, o) or
    (T, 1, o) that broadcasts over the batch axis."""
    return tape.record(a.value + b.value, (a, b),
                       lambda g: (g, g.sum(axis=-2).reshape(b.shape)), "add_bias")


def mlp_net(rng, sizes, tasks=()):
    """Random weights and (1, o) bias rows of a ReLU MLP; per-task stacks of
    them when tasks is (T,)."""
    weights = [rand(rng, *tasks, i, o) for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [rand(rng, *tasks, 1, o) for o in sizes[1:]]
    return weights, biases


def check_mlp_grad(x0, weights, biases):
    """FD-check ad.mlp on the input x0 with respect to every weight and bias."""
    arrays = [a for pair in zip(weights, biases) for a in pair]
    shapes = [a.shape for a in arrays]
    sizes = [a.size for a in arrays]

    def f(vec):
        tape = ad.Tape()
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        leaves = [tape.leaf(p.reshape(sh)) for p, sh in zip(parts, shapes)]
        loss = square(tape, ad.mlp(tape, x0, leaves[0::2], leaves[1::2]))
        grads = ad.grad(tape, loss, leaves)
        return float(loss.value.sum()), np.concatenate([g.ravel() for g in grads])

    x = np.concatenate([a.ravel() for a in arrays])
    err, ok, _ = ad.finite_diff_check(f, x, h=1e-6, rel_tol=5e-5)
    assert ok, f"max relative error {err:.3e}"


def test_mlp_matches_fd():
    rng = np.random.default_rng(2)
    weights, biases = mlp_net(rng, [4, 5, 5, 3])
    check_mlp_grad(rand(rng, 6, 4), weights, biases)


def test_mlp_task_stacked_matches_fd():
    # (T, B, i) through per-task (T, i, o) weights and (T, 1, o) biases: the
    # adjoints pass the FD check, and each task's slice equals the 2-D net
    # on that task's parameters bit for bit.
    rng = np.random.default_rng(13)
    weights, biases = mlp_net(rng, [4, 5, 2], tasks=(3,))
    x = rand(rng, 3, 6, 4)
    check_mlp_grad(x, weights, biases)
    tape = ad.Tape()
    out = ad.mlp(tape, x, [tape.leaf(w) for w in weights], [tape.leaf(b) for b in biases])
    for task in range(3):
        one = ad.mlp(tape, x[task], [tape.leaf(w[task]) for w in weights],
                     [tape.leaf(b[task, 0]) for b in biases])
        np.testing.assert_array_equal(out.value[task], one.value)
    with pytest.raises(ValueError, match="mlp"):
        ad.mlp(tape, x, [tape.leaf(w[0]) for w in weights],
               [tape.leaf(b[0, 0]) for b in biases])  # shared weights: no adjoint


def reference_chain(tape, x, weights, biases):
    """The matmul/add/ReLU chain that ad.mlp fuses, one node per operation;
    the first matmul reads the input array x."""

    def matmul(a, b):
        bv = b.value
        if a is x:  # the input array, not a node: only b has an adjoint
            return tape.record(x @ bv, (b,), lambda g: (np.swapaxes(x, -1, -2) @ g,))
        av = a.value
        return tape.record(
            av @ bv, (a, b),
            lambda g: (g @ np.swapaxes(bv, -1, -2), np.swapaxes(av, -1, -2) @ g),
        )

    def relu(a):
        mask = a.value > 0.0
        return tape.record(a.value * mask, (a,), lambda g: (g * mask,))

    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = add_bias(tape, matmul(h, w), b)
        if i != len(weights) - 1:
            h = relu(h)
    return h


@pytest.mark.parametrize("tasks", [(), (3,)])
def test_mlp_equals_reference_chain_bitwise(tasks):
    rng = np.random.default_rng(14)
    weights, biases = mlp_net(rng, [6, 8, 8, 3], tasks=tasks)
    x = rand(rng, *tasks, 5, 6)
    results = []
    for build in (ad.mlp, reference_chain):
        tape = ad.Tape()
        leaves = [tape.leaf(a) for pair in zip(weights, biases) for a in pair]
        out = build(tape, x, leaves[0::2], leaves[1::2])
        loss = square(tape, out)
        results.append([out.value] + ad.grad(tape, loss, leaves))
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


def test_grad_does_not_grow_tape():
    tape = ad.Tape()
    x = tape.leaf(np.arange(4.0))
    loss = square(tape, x)
    before = len(tape)
    ad.grad(tape, loss, [x])
    ad.grad(tape, loss, [x])
    assert len(tape) == before


def test_tape_is_freed_by_refcount():
    # Nodes do not refer to their tape: dropping the tape frees it without
    # the cycle collector, while its nodes live on.
    gc.disable()
    try:
        tape = ad.Tape()
        x = tape.leaf(np.arange(3.0))
        loss = square(tape, x)
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
    finally:
        gc.enable()


def test_grad_unused_leaf_is_zero():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    y = tape.leaf(np.ones(2))
    loss = square(tape, x)
    gx, gy = ad.grad(tape, loss, [x, y])
    np.testing.assert_array_equal(gy, np.zeros(2))
    np.testing.assert_allclose(gx, 2.0 * np.ones(3))


def test_grad_keeps_requested_intermediate_adjoints():
    # grad drops adjoints it has passed on, but never one it was asked for.
    tape = ad.Tape()
    x = tape.leaf(np.arange(3.0))
    y = square(tape, x)
    z = times(tape, y, np.full(3, 2.0))
    gz, gy, gx = ad.grad(tape, z, [z, y, x])
    np.testing.assert_array_equal(gz, np.ones(3))
    np.testing.assert_array_equal(gy, np.full(3, 2.0))
    np.testing.assert_array_equal(gx, 4.0 * np.arange(3.0))


def test_grad_accumulates_over_fan_out():
    # x feeds both parents of one node, once directly and once through
    # times, so its adjoint is the sum of both contributions:
    # d/dx sum(x * 3 x) = 3 x + 3 x = 6 x.
    tape = ad.Tape()
    x0 = np.arange(3.0)
    x = tape.leaf(x0)
    y = times(tape, x, np.full(3, 3.0))
    loss = tape.record(x.value * y.value, (x, y), lambda g: (g * y.value, g * x.value))
    (g,) = ad.grad(tape, loss, [x])
    np.testing.assert_array_equal(g, 6.0 * x0)


def test_grad_of_vector_loss_is_gradient_of_its_sum():
    # d/dx sum(x^2) = 2 x, whether the loss node holds the entries x^2 or
    # their sum; grad seeds ones shaped like the (T,) loss node.
    x0 = np.array([1.5, -2.0, 0.25])
    tape = ad.Tape()
    x = tape.leaf(x0)
    y = square(tape, x)
    total = tape.record(y.value.sum(), (y,), lambda g: (np.full(y.shape, g),), "sum")
    (g_vec,) = ad.grad(tape, y, [x])
    (g_sum,) = ad.grad(tape, total, [x])
    np.testing.assert_array_equal(g_vec, 2.0 * x0)
    np.testing.assert_array_equal(g_vec, g_sum)


def make_hermitian_system(rng, b, n, kk):
    a = rand(rng, b, n, n) + 1j * rand(rng, b, n, n)
    s = a @ np.conj(np.swapaxes(a, 1, 2)) + 2.0 * np.eye(n)
    rhs = rand(rng, b, n, kk) + 1j * rand(rng, b, n, kk)
    mu = np.abs(rand(rng, b)) + 0.5
    return s, mu, rhs


def test_csolve_hpd_forward_matches_numpy():
    rng = np.random.default_rng(8)
    s, mu, rhs = make_hermitian_system(rng, 2, 3, 2)
    tape = ad.Tape()
    out = ad.csolve_hpd(tape, tape.leaf(s.real), tape.leaf(s.imag), tape.leaf(mu), rhs)
    expected = np.linalg.solve(s + mu[:, None, None] * np.eye(3), rhs)
    np.testing.assert_allclose(out.value.real, expected.real, atol=1e-12)
    np.testing.assert_allclose(out.value.imag, expected.imag, atol=1e-12)


def test_csolve_hpd_adjoint_matches_fd():
    rng = np.random.default_rng(9)
    s, mu, rhs = make_hermitian_system(rng, 2, 3, 2)
    shapes = [s.real.shape, s.imag.shape, mu.shape]
    sizes = [int(np.prod(sh)) for sh in shapes]

    def f(vec):
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        tape = ad.Tape()
        leaves = [tape.leaf(p.reshape(sh)) for p, sh in zip(parts, shapes)]
        loss = abs_square(tape, ad.csolve_hpd(tape, leaves[0], leaves[1], leaves[2], rhs))
        grads = ad.grad(tape, loss, leaves)
        return float(loss.value.sum()), np.concatenate([g.ravel() for g in grads])

    x0 = np.concatenate([s.real.ravel(), s.imag.ravel(), mu.ravel()])
    err, ok, _ = ad.finite_diff_check(f, x0, h=1e-6, rel_tol=5e-5, coords=40)
    assert ok, f"max relative error {err:.3e}"


def test_csolve_hpd_rejects_indefinite():
    tape = ad.Tape()
    n = 3
    s_re = tape.leaf(-np.eye(n)[None])
    s_im = tape.leaf(np.zeros((1, n, n)))
    mu = tape.leaf(np.zeros(1))
    with pytest.raises(SingularMatrixError):
        ad.csolve_hpd(tape, s_re, s_im, mu, np.ones((1, n, 1), dtype=complex))


def test_sgd_step_formula():
    # sgd_step writes its result into g, so the expectation comes first.
    vec = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, 0.5, -1.0])
    expected = vec - 0.1 * g
    vec_before = vec.copy()
    out = sgd_step(vec, g, 0.1)
    np.testing.assert_array_equal(out, expected)
    np.testing.assert_array_equal(vec, vec_before)
    assert out is g


def test_adam_step_matches_textbook_float_order():
    # Three steps from a nonzero state against the out-of-place formula,
    # to the bit; the returned vector never shares memory with vec or g.
    rng = np.random.default_rng(4)
    dim, lr, beta1, beta2, eps = 50, 0.01, 0.9, 0.999, 1e-8
    vec = rng.standard_normal(dim)
    state = AdamState(m=0.1 * rng.standard_normal(dim),
                      v=0.01 * rng.random(dim), t=4)
    m, v, t = state.m.copy(), state.v.copy(), state.t
    want = vec.copy()
    for _ in range(3):
        g = rng.standard_normal(dim)
        g_before, vec_before = g.copy(), vec.copy()
        t = t + 1
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        want = want - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_vec, state = adam_step(vec, g, state, lr)
        assert not np.shares_memory(new_vec, vec)
        assert not np.shares_memory(new_vec, g)
        np.testing.assert_array_equal(vec, vec_before)
        np.testing.assert_array_equal(g, g_before)
        np.testing.assert_array_equal(new_vec, want)
        np.testing.assert_array_equal(state.m, m)
        np.testing.assert_array_equal(state.v, v)
        assert state.t == t
        vec = new_vec


def test_adam_first_step_closed_form():
    vec = np.array([1.0, -2.0, 0.0])
    g = np.array([0.3, -0.7, 2.0])
    state = AdamState.init(3)
    new_vec, new_state = adam_step(vec, g, state, lr=0.01)
    expected = vec - 0.01 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(new_vec, expected, rtol=1e-12)
    assert new_state.t == 1
    np.testing.assert_allclose(new_state.m, 0.1 * g)
    np.testing.assert_allclose(new_state.v, 0.001 * g * g)


def test_finite_diff_check_accepts_true_gradient():
    def f(x):
        return 0.5 * float(x @ x), x

    err, ok, skipped = ad.finite_diff_check(f, np.arange(1.0, 6.0), h=1e-6)
    assert ok and skipped == 0
    assert err < 1e-6


def test_finite_diff_check_flags_corrupted_gradient():
    def f(x):
        g = x.copy()
        g[0] += 0.5  # wrong by a constant in one coordinate
        return 0.5 * float(x @ x), g

    _, ok, _ = ad.finite_diff_check(f, np.arange(1.0, 6.0), h=1e-6)
    assert not ok


def test_finite_diff_check_skips_relu_kink():
    # Coordinate sitting exactly on the kink: one-sided differences are 1
    # and 0, so the probe must be skipped instead of reported as an error.
    def f(x):
        return float(np.maximum(x, 0.0).sum()), (x > 0).astype(float)

    x0 = np.array([0.0, 1.0, -1.0])
    err, ok, skipped = ad.finite_diff_check(f, x0, h=1e-6)
    assert skipped >= 1
    assert ok, f"smooth coordinates should still pass, err {err:.3e}"
