"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tape records every operation as an append-only node holding the forward
value, parent references, and one backward closure that maps the node's
adjoint to one adjoint per parent. The gradient pass walks the nodes once in
reverse insertion order and never adds nodes, so the tape length is the same
before and after grad().

Nodes refer to their tape weakly, so a tape and its nodes hold no reference
cycle and are freed by reference counting as soon as the caller drops them;
recording on a node whose tape is gone raises.

Besides a few elementwise primitives the tape has coarse nodes whose
backward is written in closed form: mlp runs a whole ReLU network as one
node, and csolve_hpd solves batched complex Hermitian positive definite
systems (complex values travel as stacked real and imaginary parts). Callers
record their own closed-form nodes through Tape.record, as the rate loss of
pipeline.reconstruct_and_loss does.
"""

import weakref

import numpy as np

from .linalg import hpd_solve


class Tape:
    """Append-only record of one forward computation."""

    __slots__ = ("nodes", "_ref", "__weakref__")

    def __init__(self):
        self.nodes = []
        self._ref = weakref.ref(self)

    def __len__(self):
        return len(self.nodes)

    def record(self, value, parents=(), backward=None, op=""):
        """Append a node; backward(g) returns one adjoint per parent, in
        order, each None or shaped like that parent's value."""
        node = Node(self._ref, len(self.nodes), np.asarray(value, dtype=np.float64), op)
        node.parents = parents
        node.backward = backward
        node.requires_grad = any(p.requires_grad for p in parents)
        self.nodes.append(node)
        return node

    def leaf(self, value):
        """Differentiable input (a parameter)."""
        node = self.record(value, op="leaf")
        node.requires_grad = True
        return node

    def const(self, value):
        """Non-differentiable input; gradients are never propagated into it."""
        return self.record(value, op="const")


class Node:
    """One tape entry: forward value plus its local backward rule."""

    __slots__ = ("_tape", "index", "value", "op", "parents", "backward", "requires_grad")

    def __init__(self, tape_ref, index, value, op):
        self._tape = tape_ref
        self.index = index
        self.value = value
        self.op = op
        self.parents = ()
        self.backward = None
        self.requires_grad = False

    @property
    def tape(self):
        tape = self._tape()
        if tape is None:
            raise RuntimeError(f"the tape of this {self.op!r} node has been freed")
        return tape

    @property
    def shape(self):
        return self.value.shape


def grad(tape, loss, wrt):
    """Gradients of a scalar loss node with respect to the listed nodes.

    Visits the tape exactly once in reverse insertion order, accumulating
    vector-Jacobian products; records nothing, so len(tape) is unchanged.
    A node's adjoint is dropped once passed to its parents, unless requested.
    """
    if loss.value.ndim != 0 and loss.value.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    adjoint = [None] * len(tape.nodes)
    adjoint[loss.index] = np.ones_like(loss.value)
    keep = {node.index for node in wrt}
    for node in reversed(tape.nodes):
        g = adjoint[node.index]
        if g is None or node.backward is None:
            continue
        if node.index not in keep:
            adjoint[node.index] = None
        for parent, contrib in zip(node.parents, node.backward(g)):
            if contrib is None or not parent.requires_grad:
                continue
            if adjoint[parent.index] is None:
                adjoint[parent.index] = contrib
            else:
                adjoint[parent.index] = adjoint[parent.index] + contrib
    out = []
    for node in wrt:
        g = adjoint[node.index]
        out.append(np.zeros_like(node.value) if g is None else g)
    return out


def _unbroadcast(g, shape):
    """Reduce a gradient back to the shape the operand had before broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _unary(a, value, backward, op):
    return a.tape.record(value, (a,), lambda g: (backward(g),), op)


def add(a, b):
    sa, sb = a.value.shape, b.value.shape
    return a.tape.record(
        a.value + b.value,
        (a, b),
        lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)),
        "add",
    )


def mul(a, b):
    av, bv = a.value, b.value
    return a.tape.record(
        av * bv,
        (a, b),
        lambda g: (
            _unbroadcast(g * bv, av.shape) if a.requires_grad else None,
            _unbroadcast(g * av, bv.shape) if b.requires_grad else None,
        ),
        "mul",
    )


def add_const(a, c):
    return _unary(a, a.value + c, lambda g: g, "add_const")


def scale(a, c):
    """Product with a constant that broadcasts to a's shape (a scalar, or
    e.g. per-user weights along the last axis)."""
    return _unary(a, a.value * c, lambda g: g * c, "scale")


def square(a):
    av = a.value
    return _unary(a, av * av, lambda g: g * (2.0 * av), "square")


def softplus(a):
    """log(1 + exp(x)), computed stably; derivative is the logistic sigmoid."""
    av = a.value
    out = np.logaddexp(0.0, av)
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives the exact limit 0
        sig = 1.0 / (1.0 + np.exp(-av))
    return _unary(a, out, lambda g: g * sig, "softplus")


def mlp(x, weights, biases):
    """ReLU MLP as one node: affine, ReLU, ..., affine (linear output).

    x is (B, i) with weights (i, o) and biases (o,), or task-stacked
    (T, B, i) with one weight (T, i, o) and bias (T, 1, o) per task. The
    backward runs, layer by layer from the output, the float operations of
    the matmul/add/ReLU chain it stands for: g <- g * mask below the output
    layer, db = g summed over the broadcast axes, dW = h^T g, g <- g W^T.
    """
    inputs, masks = [], []
    h = x.value
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        if w.value.ndim != h.ndim or h.ndim not in (2, 3):
            raise ValueError(f"mlp takes (B, i) x (i, o) or (T, B, i) x (T, i, o) "
                             f"layers, got {h.shape} x {w.value.shape}")
        inputs.append(h)
        h = h @ w.value + b.value
        if i != last:
            mask = h > 0.0
            masks.append(mask)
            h = h * mask

    def backward(g):
        grads = [None] * (2 * len(weights))
        for i in range(last, -1, -1):
            if i != last:
                g = g * masks[i]
            grads[2 * i + 1] = _unbroadcast(g, biases[i].value.shape)
            grads[2 * i] = np.swapaxes(inputs[i], -1, -2) @ g
            if i or x.requires_grad:
                g = g @ np.swapaxes(weights[i].value, -1, -2)
        return (g if x.requires_grad else None, *grads)

    parents = (x,) + tuple(p for pair in zip(weights, biases) for p in pair)
    return x.tape.record(h, parents, backward, "mlp")


def reduce_sum(a):
    av = a.value
    return _unary(a, av.sum(), lambda g: np.broadcast_to(g, av.shape).copy(), "sum")


def reshape(a, shape):
    av = a.value
    return _unary(a, av.reshape(shape), lambda g: g.reshape(av.shape), "reshape")


def take_cols(a, j0, j1):
    """Column slice along the last axis, with scatter-back adjoint."""
    av = a.value

    def backward(g):
        out = np.zeros_like(av)
        out[..., j0:j1] = g
        return out

    return _unary(a, av[..., j0:j1], backward, "take_cols")


def weighted_const_sum(coeff, tensors):
    """einsum('bk,bk...->b...') with constant per-coefficient tensors.

    coeff is a (B, K) node, tensors a constant (B, K, N, N) array; the result
    is the coefficient-weighted sum of the constant blocks, e.g. the Hermitian
    quadratic term assembled from per-user rank-one outer products.
    """
    out = np.einsum("bk,bkij->bij", coeff.value, tensors)
    return _unary(coeff, out, lambda g: np.einsum("bij,bkij->bk", g, tensors),
                  "weighted_const_sum")


def csolve_hpd(s_re, s_im, mu, rhs):
    """Batched complex Hermitian positive definite solve on the tape.

    Solves (S + mu I) X = rhs with S = s_re + i s_im given by two (B, N, N)
    real nodes, mu a (B,) node of nonnegative shifts, and rhs a constant
    complex (B, N, K) array. Returns one node of shape (B, 2, N, K) stacking
    Re X and Im X. The forward is linalg.hpd_solve, which certifies every
    matrix and raises SingularMatrixError under its pivot rule.

    Adjoint, with G = Gre + i Gim the packed output gradient: the rhs adjoint
    is Q = (S + mu I)^{-1} G (Hermitian, so no transpose), the matrix adjoint
    is Sbar = -Q X^H, giving d/d s_re = Re(Sbar), d/d s_im = Im(Sbar) and
    d/d mu = Re tr(Sbar) per batch element.
    """
    n = s_re.value.shape[-1]
    s = s_re.value + 1j * s_im.value + mu.value[:, None, None] * np.eye(n)
    x = hpd_solve(s, 0.0, rhs)

    def backward(g):
        q = np.linalg.solve(s, g[:, 0] + 1j * g[:, 1])  # s is certified
        sbar = -q @ np.conj(np.swapaxes(x, 1, 2))
        return sbar.real, sbar.imag, np.real(np.trace(sbar, axis1=1, axis2=2))

    value = np.stack([x.real, x.imag], axis=1)
    return s_re.tape.record(value, (s_re, s_im, mu), backward, "csolve_hpd")


def finite_diff_check(
    f,
    x0,
    h=1e-5,
    rel_tol=1e-4,
    coords=None,
    directions=0,
    rng=None,
    floor=1e-6,
    kink_tol=None,
):
    """Compare an analytic gradient against central finite differences.

    f maps a flat float64 vector to (loss_value, gradient_vector). Checks
    every coordinate when coords is None, a random subset of `coords`
    coordinates otherwise, plus `directions` random-direction directional
    derivatives (each touches every coordinate at once). Relative error is
    |fd - ad| / max(|fd|, |ad|, floor).

    Central differences are only valid where f is smooth at scale h; at a
    ReLU kink the forward and backward one-sided differences disagree by the
    slope jump, so probes whose one-sided differences differ by more than
    kink_tol (relative) are skipped rather than misreported. kink_tol
    defaults to rel_tol, which caps the error a barely-surviving kink probe
    can contribute at rel_tol/2, below the pass threshold. Returns
    (max_rel_err, ok, n_skipped).
    """
    if kink_tol is None:
        kink_tol = rel_tol
    x0 = np.asarray(x0, dtype=np.float64)
    f0, g = f(x0)
    g = np.asarray(g, dtype=np.float64)
    if g.shape != x0.shape:
        raise ValueError("gradient shape does not match input")
    rng = rng or np.random.default_rng(0)

    def value(x):
        return f(x)[0]

    max_err = 0.0
    n_skipped = 0

    def probe(fp, fm, analytic):
        nonlocal max_err, n_skipped
        fd_central = (fp - fm) / (2.0 * h)
        one_sided_gap = abs((fp - f0) - (f0 - fm)) / h
        if one_sided_gap > kink_tol * max(abs(fd_central), floor):
            n_skipped += 1
            return
        err = abs(fd_central - analytic) / max(abs(fd_central), abs(analytic), floor)
        max_err = max(max_err, err)

    if coords is None:
        idx = np.arange(x0.size)
    else:
        idx = rng.choice(x0.size, size=min(coords, x0.size), replace=False)
    for i in idx:
        e = np.zeros_like(x0)
        e[i] = h
        probe(value(x0 + e), value(x0 - e), g[i])
    for _ in range(directions):
        d = rng.standard_normal(x0.size)
        d /= np.linalg.norm(d)
        probe(value(x0 + h * d), value(x0 - h * d), float(g @ d))
    return max_err, max_err < rel_tol, n_skipped
