"""MLP parameters, optimizers, and checkpoint serialization.

The predictor holds three small ReLU MLPs (u-net, w-net, mu-net) sharing one
input encoding. Parameters live in plain numpy arrays. Adam flattens them
into a single vector (pack/unpack), and a checkpoint's payload is that
vector; plain SGD steps each leaf's array, or a stack of per-task parameters
(stack_params), and from_arrays rebuilds the parameters from such
per-leaf arrays.

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


@dataclass
class MlpParams:
    """Dense ReLU network: weights[i] is (sizes[i], sizes[i+1])."""

    weights: list
    biases: list

    @property
    def sizes(self):
        return [self.weights[0].shape[0]] + [w.shape[1] for w in self.weights]

    def arrays(self):
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b


@dataclass
class PredictorParams:
    """The three component networks, in fixed (u, w, mu) order."""

    u_net: MlpParams
    w_net: MlpParams
    mu_net: MlpParams

    def nets(self):
        return (self.u_net, self.w_net, self.mu_net)

    def arrays(self):
        for net in self.nets():
            yield from net.arrays()


def feature_dim(n, k):
    """Input size: re/im of K*N channel entries plus re/im of N*K beamformer."""
    return 4 * n * k


def init_mlp(rng, sizes, out_bias=0.0):
    """Uniform(-a, a) init with a = sqrt(6 / (fan_in + fan_out)); zero biases
    except an optional constant bias on the output layer."""
    weights, biases = [], []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        last = i == len(sizes) - 2
        biases.append(np.full(fan_out, out_bias if last else 0.0))
    return MlpParams(weights=weights, biases=biases)


def predictor_sizes(n, k, width=DEFAULT_WIDTH):
    """Layer sizes of the (u, w, mu) nets for an (N, K) system: input
    feature_dim, two hidden layers of width, outputs 2K, K and 1."""
    return [[feature_dim(n, k), width, width, out] for out in (2 * k, k, 1)]


def init_predictor(rng, n, k, width=DEFAULT_WIDTH):
    """Fresh predictor for an (N, K) system, shaped by predictor_sizes."""
    u, w, mu = predictor_sizes(n, k, width)
    return PredictorParams(init_mlp(rng, u, out_bias=U_OUTPUT_BIAS),
                           init_mlp(rng, w), init_mlp(rng, mu))


def pack(params):
    """Flatten every parameter array into one float64 vector (fixed order)."""
    return np.concatenate([a.ravel() for a in params.arrays()])


def unpack(vec, template):
    """Rebuild a PredictorParams with template's shapes from a flat vector;
    every array is a copy, so the result keeps vec neither alive nor shared."""
    return from_arrays(leaf_views(vec, template), template)


def from_arrays(arrays, template):
    """PredictorParams shaped like template from per-leaf arrays in
    template.arrays() order, each of its leaf's size (e.g. one task's slice of
    a stack). Copies every array, so the result keeps no input alive."""
    return _assemble(
        [a.reshape(t.shape).copy() for a, t in zip(arrays, template.arrays())], template
    )


def leaf_views(vec, template):
    """Views of consecutive pieces of the flat vector vec, shaped like
    template.arrays(): no copy, so a write into vec shows through them."""
    vec = np.asarray(vec, dtype=np.float64)
    leaves = list(template.arrays())
    ends = list(itertools.accumulate(a.size for a in leaves))
    if ends[-1] != vec.size:
        raise ValueError(f"vector has {vec.size} entries, template needs {ends[-1]}")
    return [vec[lo:hi].reshape(a.shape) for lo, hi, a in zip([0] + ends, ends, leaves)]


def _assemble(leaves, template):
    """PredictorParams with template's layer counts from a list of per-leaf
    arrays in template.arrays() order, taken as they are."""
    nets, lo = [], 0
    for net in template.nets():
        hi = lo + 2 * len(net.weights)
        nets.append(MlpParams(weights=leaves[lo:hi:2], biases=leaves[lo + 1 : hi : 2]))
        lo = hi
    return PredictorParams(*nets)


def leaves_for(tape, params, arrays):
    """One tape leaf per array of arrays, per-leaf arrays in params.arrays()
    order: params' own, views of a packed vector (leaf_views), or T tasks'
    stacks (stack_params; weights (T, i, o), biases (T, 1, o)). Returns the
    leaves as a PredictorParams shaped like params, and as a flat list."""
    flat = [tape.leaf(a) for a in arrays]
    return _assemble(flat, params), flat


def stack_params(params, t):
    """params for T tasks as per-leaf stacks: weights (T, i, o), biases
    (T, 1, o). Each stack is a read-only broadcast view of its leaf, not a
    copy: no step writes into a stack (sgd_step writes into the gradient)."""
    stacks = []
    for a in params.arrays():
        one = a.reshape(1, -1, a.shape[-1])
        stacks.append(np.broadcast_to(one, (t, *one.shape[1:])))
    return stacks


def mlp_forward_np(net, x):
    """Forward-only twin of autodiff.mlp on plain arrays."""
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i != last:
            h = np.maximum(h, 0.0)
    return h


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


def adam_step(vec, g, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam update; returns (new_vec, state).

    The textbook float operations in their order:
        m <- beta1 m + (1 - beta1) g,  v <- beta2 v + (1 - beta2) g g,
        new_vec = vec - lr (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps).
    state is advanced in place (m, v and t) through one scratch vector;
    new_vec is a fresh array, and vec and g are never written.
    """
    state.t += 1
    m, v, t = state.m, state.v, state.t
    scratch = np.multiply(g, 1.0 - beta1)
    m *= beta1
    m += scratch
    np.multiply(g, 1.0 - beta2, out=scratch)
    scratch *= g
    v *= beta2
    v += scratch
    np.divide(v, 1.0 - beta2**t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += eps
    new_vec = np.divide(m, 1.0 - beta1**t)
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
    nets = params.nets()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(nets)))
        for net in nets:
            sizes = net.sizes
            fh.write(struct.pack(f"<I{len(sizes)}I", len(sizes), *sizes))
        fh.write(vec.astype("<f8").tobytes())


def load_checkpoint(path):
    """Read a checkpoint written by save_checkpoint; validates layout."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 9 or blob[:5] != CHECKPOINT_MAGIC:
        raise DataFormatError(f"bad checkpoint magic in {path}")
    offset = 5
    (net_count,) = struct.unpack_from("<I", blob, offset)
    offset += 4
    if net_count != 3:
        raise DataFormatError(f"expected 3 nets, header says {net_count}")
    layers = []  # per net, its (fan_in, fan_out) pairs
    for _ in range(net_count):
        if offset + 4 > len(blob):
            raise DataFormatError(f"truncated header at byte {offset}")
        (n_sizes,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if n_sizes < 2 or n_sizes > 64 or offset + 4 * n_sizes > len(blob):
            raise DataFormatError(f"implausible layer count {n_sizes} at byte {offset}")
        sizes = struct.unpack_from(f"<{n_sizes}I", blob, offset)
        layers.append(list(zip(sizes, sizes[1:])))
        offset += 4 * n_sizes
    need = 8 * sum(i * o + o for net in layers for i, o in net)
    if offset + need > len(blob):
        raise DataFormatError(f"truncated payload at byte {offset}, need {need} bytes")
    if offset + need < len(blob):
        raise DataFormatError(
            f"{len(blob) - offset - need} trailing bytes after payload at byte "
            f"{offset + need}"
        )
    # a shape-only template: unpack reads nothing but its leaves' shapes
    template = PredictorParams(*(
        MlpParams([np.empty((i, o)) for i, o in net], [np.empty(o) for _, o in net])
        for net in layers
    ))
    return unpack(np.frombuffer(blob, dtype="<f8", count=need // 8, offset=offset),
                  template)
