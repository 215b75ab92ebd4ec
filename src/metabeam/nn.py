"""MLP parameters, optimizers, and checkpoint serialization.

The predictor holds three small ReLU MLPs (u-net, w-net, mu-net) sharing one
input encoding. Parameters live in plain numpy arrays. Adam flattens them
into a single vector (pack/unpack), and a checkpoint's payload is that
vector; plain SGD steps each leaf's array, or a stack of per-task copies of
it (stack_params), and from_arrays rebuilds the parameters from such
per-leaf arrays.
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


def init_predictor(rng, n, k, width=DEFAULT_WIDTH):
    """Fresh predictor for an (N, K) system: outputs 2K (u), K (w), 1 (mu)."""
    d = feature_dim(n, k)
    return PredictorParams(
        u_net=init_mlp(rng, [d, width, width, 2 * k], out_bias=U_OUTPUT_BIAS),
        w_net=init_mlp(rng, [d, width, width, k]),
        mu_net=init_mlp(rng, [d, width, width, 1]),
    )


def pack(params):
    """Flatten every parameter array into one float64 vector (fixed order)."""
    return np.concatenate([a.ravel() for a in params.arrays()])


def unpack(vec, template):
    """Rebuild a PredictorParams with template's shapes from a flat vector."""
    vec = np.asarray(vec, dtype=np.float64)
    ends = list(itertools.accumulate(a.size for a in template.arrays()))
    if ends[-1] != vec.size:
        raise ValueError(f"vector has {vec.size} entries, template needs {ends[-1]}")
    return from_arrays((vec[lo:hi] for lo, hi in zip([0] + ends, ends)), template)


def from_arrays(arrays, template):
    """PredictorParams shaped like template from per-leaf arrays in
    template.arrays() order, each of its leaf's size (e.g. one task's slice of
    a stack). Copies every array, so the result keeps no input alive."""
    arrays = iter(arrays)
    nets = []
    for net in template.nets():
        weights, biases = [], []
        for w, b in zip(net.weights, net.biases):
            weights.append(next(arrays).reshape(w.shape).copy())
            biases.append(next(arrays).reshape(b.shape).copy())
        nets.append(MlpParams(weights=weights, biases=biases))
    return PredictorParams(*nets)


def leaves_for(tape, params, stack=None):
    """Create one tape leaf per parameter array; returns (tree, flat list).

    With stack, per-leaf arrays in params.arrays() order holding T tasks'
    copies (see stack_params), the leaves are those arrays: weights
    (T, i, o) and biases (T, 1, o).
    """
    arrays = params.arrays() if stack is None else iter(stack)
    nets, flat = [], []
    for net in params.nets():
        weights, biases = [], []
        for _ in net.weights:
            wn, bn = tape.leaf(next(arrays)), tape.leaf(next(arrays))
            weights.append(wn)
            biases.append(bn)
            flat.extend((wn, bn))
        nets.append(MlpParams(weights=weights, biases=biases))
    return PredictorParams(*nets), flat


def stack_params(params, t):
    """T copies of params as per-leaf stacks: weights (T, i, o), biases (T, 1, o)."""
    return [np.repeat(a.reshape(1, -1, a.shape[-1]), t, axis=0) for a in params.arrays()]


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
    """Plain gradient step on a flat parameter vector or one leaf stack."""
    return vec - lr * g


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int

    @classmethod
    def init(cls, dim):
        return cls(m=np.zeros(dim), v=np.zeros(dim), t=0)


def adam_step(vec, g, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam update; returns (new_vec, new_state)."""
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * g
    v = beta2 * state.v + (1.0 - beta2) * g * g
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    new_vec = vec - lr * m_hat / (np.sqrt(v_hat) + eps)
    return new_vec, AdamState(m=m, v=v, t=t)


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
