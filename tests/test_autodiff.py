"""Tape autodiff: per-primitive gradient checks and tape invariants.

Analytic oracles, stated before each assertion:
- ad.mlp is the matmul/add/ReLU chain it replaces, so its value and every
  gradient equal that chain's, built node by node in the test, to the bit.
- sum(square(mul(x, y))): d/dx = 2 x y^2.
- Adam from a zero state at t=1 has m_hat = g and v_hat = g^2, so the first
  step is exactly theta - lr * g / (|g| + eps).
- For Hermitian base S, the csolve_hpd adjoint matches entrywise central
  differences on s_re, s_im, and mu even though single-entry perturbations
  are not Hermitian (the real parts of the two sensitivity expressions
  coincide when S = S^H).
"""

import gc
import warnings
import weakref

import numpy as np
import pytest

from metabeam import autodiff as ad
from metabeam.errors import SingularMatrixError
from metabeam.nn import AdamState, adam_step, sgd_step


def check_grad(build, x0, rel_tol=5e-5, h=1e-6):
    """FD-check d(scalar)/d(leaf) for loss = build(tape, leaf(x0))."""
    x0 = np.asarray(x0, dtype=np.float64)

    def f(vec):
        tape = ad.Tape()
        leaf = tape.leaf(vec.reshape(x0.shape))
        loss = build(tape, leaf)
        (g,) = ad.grad(tape, loss, [leaf])
        return float(loss.value), np.asarray(g).ravel()

    err, ok, _ = ad.finite_diff_check(f, x0.ravel(), h=h, rel_tol=rel_tol)
    assert ok, f"max relative error {err:.3e}"


def rand(rng, *shape):
    return rng.standard_normal(shape)


def test_elementwise_primitives_match_fd():
    rng = np.random.default_rng(0)
    x = rand(rng, 3, 4)
    y = rand(rng, 3, 4)
    cases = {
        "add": lambda t, a: ad.reduce_sum(ad.square(ad.add(a, t.const(y)))),
        "mul": lambda t, a: ad.reduce_sum(ad.square(ad.mul(a, t.const(y)))),
        "add_const": lambda t, a: ad.reduce_sum(ad.square(ad.add_const(a, 1.7))),
        "scale": lambda t, a: ad.reduce_sum(ad.square(ad.scale(a, -2.3))),
        "scale_row": lambda t, a: ad.reduce_sum(ad.square(ad.scale(a, y[0]))),
        "square": lambda t, a: ad.reduce_sum(ad.square(ad.square(a))),
        "softplus": lambda t, a: ad.reduce_sum(ad.square(ad.softplus(a))),
    }
    for name, build in cases.items():
        check_grad(build, x)


def test_softplus_far_negative_is_silent_and_exact():
    # exp(800) overflows; the sigmoid must still come out as exactly 0
    # without a RuntimeWarning, and softplus(-800) underflows to 0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tape = ad.Tape()
        x = tape.leaf(np.array([-800.0, 0.0]))
        out = ad.softplus(x)
        (g,) = ad.grad(tape, ad.reduce_sum(out), [x])
    assert out.value[0] == 0.0
    np.testing.assert_array_equal(g, [0.0, 0.5])


def test_shape_primitives_match_fd():
    rng = np.random.default_rng(5)
    x = rand(rng, 2, 6)
    check_grad(lambda t, a: ad.reduce_sum(ad.square(ad.reshape(a, (3, 4)))), x)
    check_grad(lambda t, a: ad.reduce_sum(ad.square(ad.take_cols(a, 1, 4))), x)


def test_structured_const_products_match_fd():
    rng = np.random.default_rng(6)
    tensors = rand(rng, 2, 3, 4, 4)
    coeff = rand(rng, 2, 3)
    check_grad(
        lambda t, a: ad.reduce_sum(ad.square(ad.weighted_const_sum(a, tensors))),
        coeff,
    )


def mlp_net(rng, sizes, tasks=()):
    """Random weights and biases of a ReLU MLP; per-task when tasks is (T,)."""
    weights = [rand(rng, *tasks, i, o) for i, o in zip(sizes[:-1], sizes[1:])]
    biases = [rand(rng, *tasks, *((1,) if tasks else ()), o) for o in sizes[1:]]
    return weights, biases


def check_mlp_grad(x0, weights, biases):
    """FD-check ad.mlp with respect to its input and every weight and bias."""
    arrays = [x0] + [a for pair in zip(weights, biases) for a in pair]
    shapes = [a.shape for a in arrays]
    sizes = [a.size for a in arrays]

    def f(vec):
        tape = ad.Tape()
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        leaves = [tape.leaf(p.reshape(sh)) for p, sh in zip(parts, shapes)]
        out = ad.mlp(leaves[0], leaves[1::2], leaves[2::2])
        loss = ad.reduce_sum(ad.square(out))
        grads = ad.grad(tape, loss, leaves)
        return float(loss.value), np.concatenate([g.ravel() for g in grads])

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
    out = ad.mlp(tape.const(x), [tape.leaf(w) for w in weights],
                 [tape.leaf(b) for b in biases])
    for task in range(3):
        one = ad.mlp(tape.const(x[task]), [tape.leaf(w[task]) for w in weights],
                     [tape.leaf(b[task, 0]) for b in biases])
        np.testing.assert_array_equal(out.value[task], one.value)
    with pytest.raises(ValueError, match="mlp"):
        ad.mlp(tape.const(x), [tape.leaf(w[0]) for w in weights],
               [tape.leaf(b[0, 0]) for b in biases])  # shared weights: no adjoint


def reference_chain(x, weights, biases):
    """The matmul/add/ReLU chain that ad.mlp fuses, one node per operation."""

    def matmul(a, b):
        av, bv = a.value, b.value
        return a.tape.record(
            av @ bv, (a, b),
            lambda g: (g @ np.swapaxes(bv, -1, -2), np.swapaxes(av, -1, -2) @ g),
        )

    def relu(a):
        mask = a.value > 0.0
        return a.tape.record(a.value * mask, (a,), lambda g: (g * mask,))

    h = x
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = ad.add(matmul(h, w), b)
        if i != len(weights) - 1:
            h = relu(h)
    return h


@pytest.mark.parametrize("tasks, input_leaf", [((), False), ((), True), ((3,), False)])
def test_mlp_equals_reference_chain_bitwise(tasks, input_leaf):
    rng = np.random.default_rng(14)
    weights, biases = mlp_net(rng, [6, 8, 8, 3], tasks=tasks)
    x = rand(rng, *tasks, 5, 6)
    results = []
    for build in (ad.mlp, reference_chain):
        tape = ad.Tape()
        xn = tape.leaf(x) if input_leaf else tape.const(x)
        leaves = [tape.leaf(a) for pair in zip(weights, biases) for a in pair]
        out = build(xn, leaves[0::2], leaves[1::2])
        loss = ad.reduce_sum(ad.square(out))
        wrt = leaves + [xn] if input_leaf else leaves
        results.append([out.value] + ad.grad(tape, loss, wrt))
    for got, want in zip(*results):
        np.testing.assert_array_equal(got, want)


def test_broadcast_gradients_exact():
    # loss = sum(a * b) with a (3,1) and b (1,4): da = sum_j b_j per row,
    # db = sum_i a_i per column, shapes preserved by unbroadcasting.
    a0 = np.array([[1.0], [2.0], [3.0]])
    b0 = np.array([[4.0, 5.0, 6.0, 7.0]])
    tape = ad.Tape()
    a, b = tape.leaf(a0), tape.leaf(b0)
    loss = ad.reduce_sum(ad.mul(a, b))
    ga, gb = ad.grad(tape, loss, [a, b])
    np.testing.assert_allclose(ga, np.full((3, 1), b0.sum()))
    np.testing.assert_allclose(gb, np.full((1, 4), a0.sum()))


def test_mul_gradient_closed_form():
    # d/dx sum((x y)^2) = 2 x y^2.
    rng = np.random.default_rng(7)
    x0, y0 = rand(rng, 5), rand(rng, 5)
    tape = ad.Tape()
    x = tape.leaf(x0)
    loss = ad.reduce_sum(ad.square(ad.mul(x, tape.const(y0))))
    (g,) = ad.grad(tape, loss, [x])
    np.testing.assert_allclose(g, 2.0 * x0 * y0**2, rtol=1e-14)


def test_grad_does_not_grow_tape():
    tape = ad.Tape()
    x = tape.leaf(np.arange(4.0))
    loss = ad.reduce_sum(ad.square(x))
    before = len(tape)
    ad.grad(tape, loss, [x])
    ad.grad(tape, loss, [x])
    assert len(tape) == before


def test_tape_is_freed_by_refcount():
    # Nodes refer to their tape weakly: dropping the tape frees it without
    # the cycle collector, and recording on an orphaned node raises.
    gc.disable()
    try:
        tape = ad.Tape()
        x = tape.leaf(np.arange(3.0))
        loss = ad.reduce_sum(ad.square(x))
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
        with pytest.raises(RuntimeError, match="freed"):
            ad.square(loss)
    finally:
        gc.enable()


def test_grad_unused_leaf_is_zero():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    y = tape.leaf(np.ones(2))
    loss = ad.reduce_sum(ad.square(x))
    gx, gy = ad.grad(tape, loss, [x, y])
    np.testing.assert_array_equal(gy, np.zeros(2))
    np.testing.assert_allclose(gx, 2.0 * np.ones(3))


def test_grad_keeps_requested_intermediate_adjoints():
    # grad drops adjoints it has passed on, but never one it was asked for.
    tape = ad.Tape()
    x = tape.leaf(np.arange(3.0))
    y = ad.square(x)
    z = ad.mul(y, tape.const(np.full(3, 2.0)))
    loss = ad.reduce_sum(z)
    gz, gy, gx = ad.grad(tape, loss, [z, y, x])
    np.testing.assert_array_equal(gz, np.ones(3))
    np.testing.assert_array_equal(gy, np.full(3, 2.0))
    np.testing.assert_array_equal(gx, 4.0 * np.arange(3.0))


def test_grad_rejects_nonscalar_loss():
    tape = ad.Tape()
    x = tape.leaf(np.ones(3))
    y = ad.square(x)
    with pytest.raises(ValueError):
        ad.grad(tape, y, [x])


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
    out = ad.csolve_hpd(tape.leaf(s.real), tape.leaf(s.imag), tape.leaf(mu), rhs)
    expected = np.linalg.solve(s + mu[:, None, None] * np.eye(3), rhs)
    np.testing.assert_allclose(out.value[:, 0], expected.real, atol=1e-12)
    np.testing.assert_allclose(out.value[:, 1], expected.imag, atol=1e-12)


def test_csolve_hpd_adjoint_matches_fd():
    rng = np.random.default_rng(9)
    s, mu, rhs = make_hermitian_system(rng, 2, 3, 2)
    shapes = [s.real.shape, s.imag.shape, mu.shape]
    sizes = [int(np.prod(sh)) for sh in shapes]

    def f(vec):
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        tape = ad.Tape()
        leaves = [tape.leaf(p.reshape(sh)) for p, sh in zip(parts, shapes)]
        out = ad.csolve_hpd(leaves[0], leaves[1], leaves[2], rhs)
        loss = ad.reduce_sum(ad.square(out))
        grads = ad.grad(tape, loss, leaves)
        return float(loss.value), np.concatenate([g.ravel() for g in grads])

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
        ad.csolve_hpd(s_re, s_im, mu, np.ones((1, n, 1), dtype=complex))


def test_sgd_step_formula():
    vec = np.array([1.0, -2.0, 3.0])
    g = np.array([0.5, 0.5, -1.0])
    np.testing.assert_allclose(sgd_step(vec, g, 0.1), vec - 0.1 * g, rtol=1e-15)


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
