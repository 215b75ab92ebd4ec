"""Downlink rate objectives: SINR, weighted sum rate, and the training loss.

Conventions: H is (K, N) with row k the channel h_k of user k; V is (N, K)
with column k the beamformer v_k; the received coefficient of stream j at
user k is h_k^H v_j.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SystemConfig:
    """Static system description.

    n: transmit antennas. k: single-antenna users. sigma2: noise power.
    p: transmit power budget (p = sigma2 * 10^(snr_db/10)).
    alpha: per-user rate weights, default all ones.
    """

    n: int
    k: int
    sigma2: float = 1.0
    p: float = 10.0
    alpha: tuple = None

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n >= 1 and k >= 1, got n={self.n} k={self.k}")
        if self.sigma2 <= 0 or self.p <= 0:
            raise ValueError("sigma2 and p must be positive")
        alpha = self.alpha
        if alpha is None:
            alpha = (1.0,) * self.k
        else:
            alpha = tuple(float(a) for a in alpha)
            if len(alpha) != self.k or any(a < 0 for a in alpha):
                raise ValueError("alpha must hold k nonnegative weights")
        object.__setattr__(self, "alpha", alpha)

    @property
    def alpha_vec(self):
        return np.asarray(self.alpha, dtype=np.float64)


def _coupling(h, v):
    """|h_k^H v_j|^2 for all pairs, shape (K, K)."""
    g = h.conj() @ v
    return np.abs(g) ** 2


def sinr(h, v, cfg, k):
    """SINR of user k: |h_k^H v_k|^2 / (sigma2 + sum_{j != k} |h_k^H v_j|^2)."""
    a2 = _coupling(np.asarray(h), np.asarray(v))
    signal = a2[k, k]
    interference = a2[k].sum() - signal
    return float(signal / (cfg.sigma2 + interference))


def all_sinr(h, v, cfg):
    """SINR of every user at once, shape (K,)."""
    a2 = _coupling(np.asarray(h), np.asarray(v))
    signal = np.diag(a2)
    interference = a2.sum(axis=1) - signal
    return signal / (cfg.sigma2 + interference)


def wsr(h, v, cfg):
    """Weighted sum rate sum_k alpha_k log2(1 + SINR_k) in bit/s/Hz."""
    return float(np.dot(cfg.alpha_vec, np.log2(1.0 + all_sinr(h, v, cfg))))


def sum_rate_loss(h, v, cfg, variant="corrected"):
    """Negated average rate, the quantity the networks minimize.

    loss = -(1/K) * sum_i ln(1 + |h_i^H v_i|^2 / denom_i), natural log.

    variant "corrected" (default) uses the SINR-consistent interference
    denom_i = sigma2 + sum_{j != i} |h_i^H v_j|^2; variant "verbatim" keeps
    the cross-user diagonal denom_i = sigma2 + sum_{j != i} |h_j^H v_j|^2.
    With unit weights, wsr == -K * loss / ln 2 for the corrected variant.
    """
    a2 = _coupling(np.asarray(h), np.asarray(v))
    signal = np.diag(a2)
    if variant == "corrected":
        denom = cfg.sigma2 + a2.sum(axis=1) - signal
    elif variant == "verbatim":
        denom = cfg.sigma2 + signal.sum() - signal
    else:
        raise ValueError(f"unknown loss variant {variant!r}")
    return float(-np.mean(np.log1p(signal / denom)))


# Vectorized batch forms, used by evaluation and memory scoring.


def batch_gains(h_batch, v_batch):
    """h_k^H v_j per sample: (B, K, N) x (B, N, K) -> (B, K, K) complex."""
    return np.einsum("bkn,bnj->bkj", h_batch.conj(), v_batch)


def batch_coupling(h_batch, v_batch):
    """|h_k^H v_j|^2 per sample: (B, K, N) x (B, N, K) -> (B, K, K)."""
    return np.abs(batch_gains(h_batch, v_batch)) ** 2


def batch_all_sinr(h_batch, v_batch, cfg):
    a2 = batch_coupling(h_batch, v_batch)
    signal = np.diagonal(a2, axis1=1, axis2=2)
    interference = a2.sum(axis=2) - signal
    return signal / (cfg.sigma2 + interference)


def batch_wsr(h_batch, v_batch, cfg):
    """Per-sample weighted sum rate, shape (B,)."""
    rates = np.log2(1.0 + batch_all_sinr(h_batch, v_batch, cfg))
    return rates @ cfg.alpha_vec


def batch_signal_denom(a2, cfg, variant="corrected"):
    """Signal |h_k^H v_k|^2 and loss denominator of every user, (B, K) each,
    from the couplings a2 (B, K, K); variant as in sum_rate_loss."""
    signal = np.diagonal(a2, axis1=1, axis2=2)
    if variant == "corrected":
        denom = cfg.sigma2 + a2.sum(axis=2) - signal
    elif variant == "verbatim":
        denom = cfg.sigma2 + signal.sum(axis=1, keepdims=True) - signal
    else:
        raise ValueError(f"unknown loss variant {variant!r}")
    return signal, denom


def batch_sample_losses(h_batch, v_batch, cfg, variant="corrected"):
    """Per-sample sum_rate_loss, shape (B,)."""
    signal, denom = batch_signal_denom(batch_coupling(h_batch, v_batch), cfg, variant)
    return -np.mean(np.log1p(signal / denom), axis=1)
