"""Reverse-mode automatic differentiation over float64 numpy arrays.

A Tape records every operation as an append-only node holding the forward
value, parent references, and one vector-Jacobian closure per parent. The
gradient pass walks the nodes once in reverse insertion order and never adds
nodes, so the tape length is the same before and after grad().

Nodes refer to their tape weakly, so a tape and its nodes hold no reference
cycle and are freed by reference counting as soon as the caller drops them;
recording on a node whose tape is gone raises.

Complex quantities are represented as separate real/imaginary nodes; the one
complex-aware primitive, csolve_hpd, solves batched Hermitian positive
definite systems and implements its adjoint in closed form (one extra solve).
"""

import weakref

import numpy as np

from .errors import DegenerateInputError, SingularMatrixError


class Tape:
    """Append-only record of one forward computation."""

    __slots__ = ("nodes", "_ref", "__weakref__")

    def __init__(self):
        self.nodes = []
        self._ref = weakref.ref(self)

    def __len__(self):
        return len(self.nodes)

    def _record(self, value, parents=(), vjps=(), op=""):
        node = Node(self._ref, len(self.nodes), np.asarray(value, dtype=np.float64), op)
        node.parents = parents
        node.vjps = vjps
        node.requires_grad = any(p.requires_grad for p in parents)
        self.nodes.append(node)
        return node

    def leaf(self, value):
        """Differentiable input (a parameter)."""
        node = self._record(value, op="leaf")
        node.requires_grad = True
        return node

    def const(self, value):
        """Non-differentiable input; gradients are never propagated into it."""
        return self._record(value, op="const")


class Node:
    """One tape entry: forward value plus local backward rules."""

    __slots__ = ("_tape", "index", "value", "op", "parents", "vjps", "requires_grad")

    def __init__(self, tape_ref, index, value, op):
        self._tape = tape_ref
        self.index = index
        self.value = value
        self.op = op
        self.parents = ()
        self.vjps = ()
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
        if g is None:
            continue
        if node.index not in keep:
            adjoint[node.index] = None
        for parent, vjp in zip(node.parents, node.vjps):
            if not parent.requires_grad or vjp is None:
                continue
            contrib = vjp(g)
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
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a, b, value, da, db, op):
    tape = a.tape
    return tape._record(
        value,
        parents=(a, b),
        vjps=(
            lambda g: _unbroadcast(da(g), a.value.shape),
            lambda g: _unbroadcast(db(g), b.value.shape),
        ),
        op=op,
    )


def add(a, b):
    return _binary(a, b, a.value + b.value, lambda g: g, lambda g: g, "add")


def sub(a, b):
    return _binary(a, b, a.value - b.value, lambda g: g, lambda g: -g, "sub")


def mul(a, b):
    av, bv = a.value, b.value
    return _binary(a, b, av * bv, lambda g: g * bv, lambda g: g * av, "mul")


def div(a, b):
    av, bv = a.value, b.value
    out = av / bv
    return _binary(a, b, out, lambda g: g / bv, lambda g: -g * out / bv, "div")


def neg(a):
    return a.tape._record(-a.value, (a,), (lambda g: -g,), "neg")


def add_const(a, c):
    return a.tape._record(a.value + c, (a,), (lambda g: g,), "add_const")


def scale(a, c):
    return a.tape._record(a.value * c, (a,), (lambda g: g * c,), "scale")


def square(a):
    av = a.value
    return a.tape._record(av * av, (a,), (lambda g: g * (2.0 * av),), "square")


def sqrt(a):
    out = np.sqrt(a.value)
    return a.tape._record(out, (a,), (lambda g: g * (0.5 / out),), "sqrt")


def log1p(a):
    av = a.value
    return a.tape._record(np.log1p(av), (a,), (lambda g: g / (1.0 + av),), "log1p")


def relu(a):
    av = a.value
    mask = av > 0.0
    return a.tape._record(av * mask, (a,), (lambda g: g * mask,), "relu")


def softplus(a):
    """log(1 + exp(x)), computed stably; derivative is the logistic sigmoid."""
    av = a.value
    out = np.logaddexp(0.0, av)
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives the exact limit 0
        sig = 1.0 / (1.0 + np.exp(-av))
    return a.tape._record(out, (a,), (lambda g: g * sig,), "softplus")


def matmul(a, b):
    """(B, i) x (i, o), or (T, B, i) x (T, i, o) with one weight per task.

    The dense affine building block; the task-batched form multiplies each
    task's slice by its own weight matrix.
    """
    av, bv = a.value, b.value
    if av.ndim != bv.ndim or bv.ndim not in (2, 3):
        raise ValueError(f"matmul takes (B, i) x (i, o) or (T, B, i) x (T, i, o), "
                         f"got {av.shape} x {bv.shape}")
    return _binary(
        a,
        b,
        av @ bv,
        lambda g: g @ np.swapaxes(bv, -1, -2),
        lambda g: np.swapaxes(av, -1, -2) @ g,
        "matmul",
    )


def reduce_sum(a, axis=None, keepdims=False):
    av = a.value
    out = av.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return np.broadcast_to(g, av.shape).copy()
        g_ = g if keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(g_, av.shape).copy()

    return a.tape._record(out, (a,), (backward,), "sum")


def reduce_mean(a):
    n = a.value.size
    out = a.value.mean()
    return a.tape._record(
        out, (a,), (lambda g: np.full(a.value.shape, g / n),), "mean"
    )


def reshape(a, shape):
    av = a.value
    return a.tape._record(
        av.reshape(shape), (a,), (lambda g: g.reshape(av.shape),), "reshape"
    )


def take_cols(a, j0, j1):
    """Column slice along the last axis, with scatter-back adjoint."""
    av = a.value

    def backward(g):
        out = np.zeros_like(av)
        out[..., j0:j1] = g
        return out

    return a.tape._record(av[..., j0:j1], (a,), (backward,), "take_cols")


def bdiag(a):
    """Diagonal of each (K, K) block: (B, K, K) -> (B, K)."""
    av = a.value
    k = av.shape[-1]
    idx = np.arange(k)

    def backward(g):
        out = np.zeros_like(av)
        out[:, idx, idx] = g
        return out

    return a.tape._record(av[:, idx, idx], (a,), (backward,), "bdiag")


def weighted_const_sum(coeff, tensors):
    """einsum('bk,bk...->b...') with constant per-coefficient tensors.

    coeff is a (B, K) node, tensors a constant (B, K, N, N) array; the result
    is the coefficient-weighted sum of the constant blocks, e.g. the Hermitian
    quadratic term assembled from per-user rank-one outer products.
    """
    cv = coeff.value
    out = np.einsum("bk,bkij->bij", cv, tensors)
    return coeff.tape._record(
        out,
        (coeff,),
        (lambda g: np.einsum("bij,bkij->bk", g, tensors),),
        "weighted_const_sum",
    )


def bmm_const_left(c, x):
    """Batched product const(B, K, N) @ node(B, N, M) -> (B, K, M)."""
    xv = x.value
    out = np.einsum("bkn,bnm->bkm", c, xv)
    return x.tape._record(
        out, (x,), (lambda g: np.einsum("bkn,bkm->bnm", c, g),), "bmm_const_left"
    )


def csolve_hpd(s_re, s_im, mu, rhs):
    """Batched complex Hermitian positive definite solve on the tape.

    Solves (S + mu I) X = rhs with S = s_re + i s_im given by two (B, N, N)
    real nodes, mu a (B,) node of nonnegative shifts, and rhs a constant
    complex (B, N, K) array. Returns one node of shape (B, 2, N, K) stacking
    Re X and Im X (split with take_part). Positive definiteness is certified
    by a batched Cholesky factorization.

    Adjoint, with G = Gre + i Gim the packed output gradient: the rhs adjoint
    is Q = (S + mu I)^{-1} G (Hermitian, so no transpose), the matrix adjoint
    is Sbar = -Q X^H, giving d/d s_re = Re(Sbar), d/d s_im = Im(Sbar) and
    d/d mu = Re tr(Sbar) per batch element.
    """
    tape = s_re.tape
    b, n, _ = s_re.value.shape
    s = s_re.value + 1j * s_im.value + mu.value[:, None, None] * np.eye(n)
    try:
        np.linalg.cholesky(s)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError("batched system is not positive definite") from exc
    x = np.linalg.solve(s, rhs)
    value = np.stack([x.real, x.imag], axis=1)

    def backward_common(g):
        gc = g[:, 0] + 1j * g[:, 1]
        q = np.linalg.solve(s, gc)
        return -q @ np.conj(np.swapaxes(x, 1, 2))

    # The three parents share Sbar; cache it per incoming gradient object.
    cache = {}

    def sbar(g):
        key = id(g)
        if key not in cache:
            cache.clear()
            cache[key] = backward_common(g)
        return cache[key]

    return tape._record(
        value,
        parents=(s_re, s_im, mu),
        vjps=(
            lambda g: sbar(g).real,
            lambda g: sbar(g).imag,
            lambda g: np.real(np.trace(sbar(g), axis1=1, axis2=2)),
        ),
        op="csolve_hpd",
    )


def take_part(a, part):
    """Select the real (0) or imaginary (1) half of a stacked complex node."""
    av = a.value

    def backward(g):
        out = np.zeros_like(av)
        out[:, part] = g
        return out

    return a.tape._record(av[:, part], (a,), (backward,), "take_part")


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
