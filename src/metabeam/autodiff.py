"""Reverse-mode automatic differentiation over numpy arrays.

A Tape records every operation as an append-only node holding the forward
value, parent references, and one backward closure that maps the node's
adjoint to one adjoint per parent. The gradient pass walks the nodes once in
reverse insertion order and never adds nodes, so the tape length is the same
before and after grad().

Nodes do not refer to their tape: every function that records takes the
tape as its first argument. A tape and its nodes therefore hold no reference
cycle and are freed by reference counting as soon as the caller drops them.

The tape has no elementwise primitives, only coarse nodes whose backward is
written in closed form: mlp runs a whole ReLU network on a plain input array
as one node, through nn.mlp_forward (the forward-only twin's layer loop too),
and csolve_hpd solves batched complex Hermitian positive definite systems
(its value is the complex solution X, its adjoint the complex
dL/dRe X + i dL/dIm X). Callers record their own closed-form nodes
through Tape.record, as pipeline.reconstruct_and_loss does for the
predictor head and the rate loss.
"""

import numpy as np

from .linalg import _identity, hpd_solve
from .nn import mlp_forward

FD_FLOOR = 1e-6  # finite_diff_check's denominator floor for relative errors


class Tape:
    """Append-only record of one forward computation."""

    __slots__ = ("nodes", "__weakref__")

    def __init__(self):
        self.nodes = []

    def __len__(self):
        return len(self.nodes)

    def record(self, value, parents=(), backward=None, op=""):
        """Append a node holding value as given; backward(g) returns one
        adjoint per parent, in order, each shaped like that parent's value."""
        node = Node(len(self.nodes), value, op, parents, backward)
        self.nodes.append(node)
        return node

    def leaf(self, value):
        """Differentiable input (a parameter)."""
        return self.record(value, op="leaf")


class Node:
    """One tape entry: forward value plus its local backward rule."""

    __slots__ = ("index", "value", "op", "parents", "backward")

    def __init__(self, index, value, op, parents, backward):
        self.index = index
        self.value = value
        self.op = op
        self.parents = parents
        self.backward = backward

    @property
    def shape(self):
        return self.value.shape


def grad(tape, loss, wrt):
    """Gradients of the sum of loss's entries with respect to the listed nodes.

    Visits the tape exactly once in reverse insertion order, accumulating
    vector-Jacobian products; records nothing, so len(tape) is unchanged.
    A node's adjoint is dropped once passed to its parents, unless requested.
    """
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
            if adjoint[parent.index] is None:
                adjoint[parent.index] = contrib
            else:
                adjoint[parent.index] = adjoint[parent.index] + contrib
    out = []
    for node in wrt:
        g = adjoint[node.index]
        out.append(np.zeros_like(node.value) if g is None else g)
    return out


def mlp(tape, x, weights, biases):
    """ReLU MLP as one node: the value is nn.mlp_forward's output, on the
    shapes it takes; x is a plain array, not a node.

    The backward runs, layer by layer from the output, the float operations
    of the matmul/add/ReLU chain it stands for: g <- g * (h > 0) below the
    output layer, with h the layer's ReLU output, db = g summed over the
    batch axis, dW = h_in^T g, g <- g W^T. It masks only its own g W^T
    products, never the adjoint it is given.
    """
    acts = mlp_forward(x, [w.value for w in weights], [b.value for b in biases])
    last = len(weights) - 1

    def backward(g):
        grads = [None] * (2 * len(weights))
        for i in range(last, -1, -1):
            if i != last:  # g is this node's own g W^T product
                g *= acts[i + 1] > 0.0
            grads[2 * i + 1] = np.add.reduce(g, axis=-2, keepdims=True)
            grads[2 * i] = acts[i].swapaxes(-1, -2) @ g
            if i:
                g = g @ weights[i].value.swapaxes(-1, -2)
        return grads

    parents = tuple(p for pair in zip(weights, biases) for p in pair)
    return tape.record(acts[-1], parents, backward, "mlp")


def csolve_hpd(tape, s_re, s_im, mu, rhs):
    """Batched complex Hermitian positive definite solve on the tape.

    Solves (S + mu I) X = rhs with S = s_re + i s_im given by two (B, N, N)
    real nodes, mu a (B,) node of nonnegative shifts, and rhs a constant
    complex (B, N, K) array. Returns one node whose value is the complex
    (B, N, K) solution X. linalg.hpd_solve certifies and solves the S + mu I
    built here, raising SingularMatrixError under its pivot rule.

    Adjoint, with G = dL/dRe X + i dL/dIm X the node's complex adjoint: the
    rhs adjoint is Q = (S + mu I)^{-1} G (Hermitian, so no transpose), the
    matrix adjoint is Sbar = -Q X^H, giving d/d s_re = Re(Sbar),
    d/d s_im = Im(Sbar) and d/d mu = Re tr(Sbar) per batch element.
    """
    n = s_re.value.shape[-1]
    s = s_re.value + 1j * s_im.value + mu.value[:, None, None] * _identity(n)
    x = hpd_solve(s, rhs)

    def backward(g):
        q = np.linalg.solve(s, g)  # s is certified
        sbar = -q @ np.conj(np.swapaxes(x, 1, 2))
        return sbar.real, sbar.imag, np.real(np.trace(sbar, axis1=1, axis2=2))

    return tape.record(x, (s_re, s_im, mu), backward, "csolve_hpd")


def finite_diff_check(f, x0, h=1e-5, rel_tol=1e-4, coords=None, directions=0, rng=None,
                      kink_tol=None):
    """Compare an analytic gradient against central finite differences.

    f maps a flat float64 vector to (loss_value, gradient_vector). Checks
    every coordinate when coords is None, a random subset of `coords`
    coordinates otherwise, plus `directions` random-direction directional
    derivatives (each touches every coordinate at once). Relative error is
    |fd - ad| / max(|fd|, |ad|, FD_FLOOR).

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
        if one_sided_gap > kink_tol * max(abs(fd_central), FD_FLOOR):
            n_skipped += 1
            return
        err = abs(fd_central - analytic) / max(abs(fd_central), abs(analytic), FD_FLOOR)
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
