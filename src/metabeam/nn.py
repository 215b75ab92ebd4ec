"""MLP parameters, the layer loop, optimizers, and checkpoint serialization.

The predictor holds three small ReLU MLPs (u-net, w-net, mu-net) sharing one
input encoding, and mlp_forward is their one layer loop, run by the
forward-only twin (pipeline.predict_beamformers) and the tape (autodiff.mlp).
PredictorParams is the one container of their leaves, in whichever form a
step or a tape pass takes them. Adam flattens the leaves into a single
vector (pack/unpack), and a checkpoint's payload is that vector; plain SGD
steps each leaf, or a stack of per-task parameters (stack_params), and
from_arrays rebuilds the parameters from such per-leaf arrays. Weights are
(i, o) and biases (1, o) rows, so T tasks' stacks are (T, i, o) and (T, 1, o).

Which arrays a step may overwrite: sgd_step writes its result into the
gradient it is given (one the caller owns and no longer needs), never into
the parameters; adam_step advances its AdamState in place (m, v and t) and
returns a fresh parameter vector, never writing into the vector or the
gradient. Since no step writes into parameters, stack_params and
leaf_views hand out views that share their source's memory; unpack and
from_arrays copy.
"""

import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, NumericalError

CHECKPOINT_MAGIC = b"MMLP1"
DEFAULT_WIDTH = 64
U_OUTPUT_BIAS = 0.1  # keeps the initial reconstruction away from the zero beamformer
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class PredictorParams:
    """The three component networks, in fixed (u, w, mu) order.

    leaves lists every net's leaves in pack order: u, w, mu, and per layer
    the weight, then the bias. They are the parameters' own arrays (weights
    (i, o), biases (1, o) rows), views of a packed vector (leaf_views), T
    tasks' stacks (stack_params; the same shapes behind a leading task axis,
    (T, i, o) and (T, 1, o)) or tape leaves (leaves_for). sizes holds each
    net's layer sizes, [fan_in, hidden..., fan_out].
    """

    leaves: list
    sizes: list

    def nets(self):
        """Each net's (weights, biases), sliced from leaves by sizes."""
        lo = 0
        for net in self.sizes:
            hi = lo + 2 * (len(net) - 1)
            yield self.leaves[lo:hi:2], self.leaves[lo + 1 : hi : 2]
            lo = hi


def feature_dim(n, k):
    """Input size: re/im of K*N channel entries plus re/im of N*K beamformer."""
    return 4 * n * k


def init_mlp(rng, sizes, out_bias=0.0):
    """One net's leaves, each weight then its bias: Uniform(-a, a) weights
    with a = sqrt(6 / (fan_in + fan_out)); zero (1, o) bias rows except an
    optional constant bias on the output layer."""
    leaves = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        leaves.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        last = i == len(sizes) - 2
        leaves.append(np.full((1, fan_out), out_bias if last else 0.0))
    return leaves


def predictor_sizes(n, k, width=DEFAULT_WIDTH):
    """Layer sizes of the (u, w, mu) nets for an (N, K) system: input
    feature_dim, two hidden layers of width, outputs 2K, K and 1."""
    return [[feature_dim(n, k), width, width, out] for out in (2 * k, k, 1)]


def init_predictor(rng, n, k, width=DEFAULT_WIDTH):
    """Fresh predictor for an (N, K) system, shaped by predictor_sizes."""
    u, w, mu = predictor_sizes(n, k, width)
    leaves = init_mlp(rng, u, out_bias=U_OUTPUT_BIAS) + init_mlp(rng, w) + init_mlp(rng, mu)
    return PredictorParams(leaves, [u, w, mu])


def pack(params):
    """Flatten every parameter array into one float64 vector (fixed order)."""
    return np.concatenate([a.ravel() for a in params.leaves])


def unpack(vec, sizes):
    """Rebuild a PredictorParams of the given layer sizes from a flat vector;
    every array is a copy, so the result keeps vec neither alive nor shared."""
    return from_arrays(leaf_views(vec, sizes).leaves, sizes)


def _leaf_shapes(sizes):
    """(shape, entry count) of each leaf in pack order, for nets of the given
    layer sizes: per layer the weight (i, o), then the bias (1, o)."""
    return [leaf for net in sizes for i, o in zip(net, net[1:])
            for leaf in (((i, o), i * o), ((1, o), o))]


def from_arrays(arrays, sizes):
    """PredictorParams of the given layer sizes from leaf-shaped arrays in
    pack order (e.g. one task's slice of a stack). Copies every array, so the
    result keeps no input alive."""
    return PredictorParams([a.copy() for a in arrays], sizes)


def leaf_views(vec, sizes):
    """PredictorParams of the given layer sizes whose leaves are views of
    consecutive pieces of the flat vector vec: no copy, so a write into vec
    shows through them."""
    vec = np.asarray(vec, dtype=np.float64)
    shapes = _leaf_shapes(sizes)
    ends = list(itertools.accumulate(count for _, count in shapes))
    if ends[-1] != vec.size:
        raise ValueError(f"vector has {vec.size} entries, sizes need {ends[-1]}")
    leaves = [vec[lo:hi].reshape(shape) for lo, hi, (shape, _) in zip([0] + ends, ends, shapes)]
    return PredictorParams(leaves, sizes)


def leaves_for(tape, params):
    """params with each leaf registered as a tape leaf: params' own arrays,
    views of a packed vector (leaf_views), or T tasks' stacks (stack_params)."""
    return PredictorParams([tape.leaf(a) for a in params.leaves], params.sizes)


def stack_params(params, t):
    """params for T tasks as per-leaf stacks, (T, i, o) weights and (T, 1, o)
    biases: read-only broadcast views of the leaves, not copies, since no step
    writes into a stack (sgd_step writes into the gradient)."""
    return PredictorParams([np.broadcast_to(a, (t, *a.shape)) for a in params.leaves],
                           params.sizes)


def mlp_forward(x, weights, biases):
    """The ReLU layer loop, affine, ReLU, ..., affine: returns each layer's
    input, then the output, [x, h1, ..., y]. x is (B, i) with weights (i, o)
    and (1, o) bias rows, or (T, B, i) with their stacks (T, i, o) and
    (T, 1, o). The add and the ReLU write only into fresh matmul results, and
    a hidden h > 0.0 is its pre-activation's ReLU mask (NaN fails both).
    """
    if x.ndim not in (2, 3) or any(w.ndim != x.ndim for w in weights):
        raise ValueError(f"mlp takes (B, i) x (i, o) or (T, B, i) x (T, i, o) layers, "
                         f"got {x.shape} x {[w.shape for w in weights]}")
    acts, last = [x], len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        h = acts[-1] @ w
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def sgd_step(vec, g, lr):
    """Plain gradient step vec - lr * g on a flat parameter vector or one leaf
    stack. The result is written into g, which the caller must own and not
    need again, and returned; vec is never written."""
    np.multiply(g, lr, out=g)
    return np.subtract(vec, g, out=g)


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def init(cls, dim):
        return cls(m=np.zeros(dim), v=np.zeros(dim), t=0)


def adam_step(vec, g, state, lr):
    """Bias-corrected Adam update with (beta1, beta2, eps) = (ADAM_BETA1,
    ADAM_BETA2, ADAM_EPS); returns (new_vec, state).

    The textbook float operations in their order:
        m <- beta1 m + (1 - beta1) g,  v <- beta2 v + (1 - beta2) g g,
        new_vec = vec - lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps).
    state is advanced in place (m, v and t) through one scratch vector;
    new_vec is a fresh array, and vec and g are never written.
    """
    state.t += 1
    m, v, t = state.m, state.v, state.t
    scratch = np.multiply(g, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += scratch
    np.multiply(g, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= g
    v *= ADAM_BETA2
    v += scratch
    np.divide(v, 1.0 - ADAM_BETA2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    new_vec = np.divide(m, 1.0 - ADAM_BETA1**t)
    new_vec *= lr
    new_vec /= scratch
    return np.subtract(vec, new_vec, out=new_vec), state


def save_checkpoint(path, params):
    """Write params to a binary file.

    Layout: magic "MMLP1", u32 net count, then per net a u32 layer-size list
    (count followed by sizes), then pack(params) as float64 little-endian
    (each weight matrix row-major, then its bias, in order). Raises
    NumericalError, writing nothing, when any parameter is NaN or infinite.
    """
    vec = pack(params)
    if not np.isfinite(vec).all():
        raise NumericalError(f"refusing to write non-finite parameters to {path}")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(params.sizes)))
        for sizes in params.sizes:
            fh.write(struct.pack(f"<I{len(sizes)}I", len(sizes), *sizes))
        fh.write(vec.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint; validates layout.

    Raises DataFormatError, naming the file, on a bad layout or a NaN or
    infinite parameter, which save_checkpoint never writes.
    """
    def bad(what):
        return DataFormatError(f"{what} in checkpoint {path}")

    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 9 or blob[:5] != CHECKPOINT_MAGIC:
        raise bad("bad magic")
    offset = 5
    (net_count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if net_count != 3:
        raise bad(f"expected 3 nets, header says {net_count}")
    sizes = []  # per net, its layer sizes
    for _ in range(net_count):
        if offset + 4 > len(blob):
            raise bad(f"truncated header at byte {offset}")
        (n_sizes,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if n_sizes < 2 or n_sizes > 64 or offset + 4 * n_sizes > len(blob):
            raise bad(f"implausible layer count {n_sizes} at byte {offset}")
        sizes.append(list(struct.unpack_from(f"<{n_sizes}I", blob, offset)))
        offset += 4 * n_sizes
    need = 8 * sum(count for _, count in _leaf_shapes(sizes))
    if offset + need > len(blob):
        raise bad(f"truncated payload at byte {offset}, need {need} bytes")
    if offset + need < len(blob):
        raise bad(f"{len(blob) - offset - need} trailing bytes after payload at byte "
                  f"{offset + need}")
    vec = np.frombuffer(blob, dtype="<f8", count=need // 8, offset=offset)
    if not np.isfinite(vec).all():
        raise bad("non-finite parameter")
    return unpack(vec, sizes)
