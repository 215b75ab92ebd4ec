"""Downlink rate objectives: SINR, weighted sum rate, and the training loss.

Conventions: H is (K, N) with row k the channel h_k of user k; V is (N, K)
with column k the beamformer v_k; the received coefficient of stream j at
user k is h_k^H v_j. Powers are in units of the noise power: rates are
invariant under (sigma2, P, V) -> (1, P/sigma2, V/sqrt(sigma2)). Every
function takes any number of leading batch axes on H and V (broadcast
against each other); one channel is the no-batch case.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import MAX_POWER


@dataclass(frozen=True)
class SystemConfig:
    """Static system description.

    n: transmit antennas. k: single-antenna users. p: transmit power
    budget in units of the noise power, so p = 10^(snr_db/10). alpha:
    per-user rate weights, finite and nonnegative, at least one positive;
    default all ones.
    """

    n: int
    k: int
    p: float = 10.0
    alpha: tuple = None
    # The noise power, the unit of p; not a field, and no formula reads it.
    # Kept only for perfbench/layers.py's _snr, which reads p / sigma2.
    sigma2 = 1.0

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={self.n} k={self.k}")
        if not 0 < self.p <= MAX_POWER:
            raise ValueError(f"p must be in (0, {MAX_POWER:g}], got {self.p:g}")
        alpha = self.alpha
        if alpha is None:
            alpha = (1.0,) * self.k
        else:
            alpha = tuple(float(a) for a in alpha)
            if not (len(alpha) == self.k and all(0.0 <= a < np.inf for a in alpha)
                    and any(alpha)):
                raise ValueError(f"alpha must hold {self.k} finite nonnegative weights, "
                                 f"at least one positive, got {list(alpha)}")
        object.__setattr__(self, "alpha", alpha)

    @cached_property
    def alpha_vec(self):
        """The weights as a read-only float array, built once per config."""
        vec = np.asarray(self.alpha, dtype=np.float64)
        vec.flags.writeable = False
        return vec


def gains(h, v):
    """h_k^H v_j for every user pair: (..., K, N) x (..., N, K) -> (..., K, K)."""
    return np.einsum("...kn,...nj->...kj", h.conj(), v)


def signal_denom(a2, variant="corrected"):
    """Signal |h_k^H v_k|^2 and loss denominator of every user, (..., K) each,
    from the couplings a2 = |gains|^2, shape (..., K, K).

    variant "corrected" (default) uses the SINR-consistent interference
    denom_k = 1 + sum_{j != k} |h_k^H v_j|^2; variant "verbatim" keeps the
    cross-user diagonal denom_k = 1 + sum_{j != k} |h_j^H v_j|^2.
    """
    signal = a2.diagonal(axis1=-2, axis2=-1)
    if variant == "corrected":
        denom = 1.0 + a2.sum(axis=-1) - signal
    elif variant == "verbatim":
        denom = 1.0 + signal.sum(axis=-1, keepdims=True) - signal
    else:
        raise ValueError(f"unknown loss variant {variant!r}")
    return signal, denom


def sinr_from_couplings(a2):
    """SINR_k = |h_k^H v_k|^2 / (1 + sum_{j != k} |h_k^H v_j|^2), (..., K),
    from the couplings a2 = |gains|^2, shape (..., K, K)."""
    signal, denom = signal_denom(a2)
    return signal / denom


def wsr_from_sinr(sinr, cfg):
    """Weighted sum rate sum_k alpha_k log2(1 + SINR_k) in bit/s/Hz, (...)."""
    return np.log2(1.0 + sinr) @ cfg.alpha_vec


def all_sinr(h, v):
    """SINR of every user of beamformer V on channel H, (..., K)."""
    return sinr_from_couplings(np.abs(gains(h, v)) ** 2)


def wsr(h, v, cfg):
    """Weighted sum rate of beamformer V on channel H in bit/s/Hz, (...)."""
    return wsr_from_sinr(all_sinr(h, v), cfg)


def sum_rate_loss(h, v, variant="corrected"):
    """Negated average rate, the quantity the networks minimize, (...).

    loss = -(1/K) * sum_k ln(1 + signal_k / denom_k), natural log, with the
    denominator of signal_denom's variant. With unit weights,
    wsr == -K * loss / ln 2 for the corrected variant.
    """
    signal, denom = signal_denom(np.abs(gains(h, v)) ** 2, variant)
    return -np.mean(np.log1p(signal / denom), axis=-1)
