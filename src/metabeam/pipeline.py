"""Differentiable component prediction and beamformer reconstruction.

Given a batch of channels, three small MLPs predict the decomposed solver
state (u, w, mu); the beamformer is rebuilt in closed form through a batched
Hermitian solve, scaled to the power budget, and scored by the negated
average rate. The whole chain runs on the autodiff tape, so gradients flow
from the rate loss back into the network parameters.

Input encoding (per sample, length 4*N*K):
    [Re H (row-major K x N), Im H, Re V_cur (row-major N x K), Im V_cur]
where V_cur defaults to the matched-filter beamformer at full power.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn, objective
from .errors import DegenerateInputError

MU_FLOOR_SCALE = 1e-4  # mu >= MU_FLOOR_SCALE * sigma2 keeps the solve definite


def mu_floor(cfg):
    return MU_FLOOR_SCALE * cfg.sigma2


def make_v_current(h_batch, cfg):
    """Reference beamformer fed to the encoder: matched-filter columns
    v_k = h_k scaled to the power budget."""
    v = np.transpose(h_batch, (0, 2, 1)).copy()
    pw = np.sum(np.abs(v) ** 2, axis=(1, 2))
    if np.any(pw == 0.0):
        raise DegenerateInputError("cannot scale an all-zero reference beamformer")
    return v * np.sqrt(cfg.p / pw)[:, None, None]


def encode_features(h_batch, v_current):
    """Stack re/im of the channels and the reference beamformer, (B, 4NK)."""
    b = h_batch.shape[0]
    return np.concatenate(
        [
            h_batch.real.reshape(b, -1),
            h_batch.imag.reshape(b, -1),
            v_current.real.reshape(b, -1),
            v_current.imag.reshape(b, -1),
        ],
        axis=1,
    )


@dataclass
class ComponentNodes:
    """Tape nodes for the predicted decomposition of a batch."""

    u_re: object  # (B, K)
    u_im: object  # (B, K)
    w: object  # (B, K), >= 1
    mu: object  # (B,), >= mu_floor


def predict_components(tape, leaves, features, cfg):
    """Run the three nets on encoded features and apply the output maps.

    u is read raw as K (re, im) pairs; w = 1 + softplus(.) >= 1 mirrors the
    weight identity w = 1 + SINR; mu = softplus(.) + mu_floor stays positive
    so the downstream solve is always definite.

    Task-batched features (T, B, 4NK) run through per-task leaves (see
    nn.leaves_for); the components then come out flattened to T*B samples.
    """
    k = cfg.k
    x = tape.const(features)
    u_raw = nn.mlp_forward(leaves.u_net, x)
    w_raw = nn.mlp_forward(leaves.w_net, x)
    mu_raw = nn.mlp_forward(leaves.mu_net, x)
    if features.ndim == 3:
        u_raw = ad.reshape(u_raw, (-1, 2 * k))
        w_raw = ad.reshape(w_raw, (-1, k))
    u_re = ad.take_cols(u_raw, 0, k)
    u_im = ad.take_cols(u_raw, k, 2 * k)
    w = ad.add_const(ad.softplus(w_raw), 1.0)
    mu = ad.add_const(ad.softplus(ad.reshape(mu_raw, (-1,))), mu_floor(cfg))
    return ComponentNodes(u_re=u_re, u_im=u_im, w=w, mu=mu)


def _outer_products(h_batch):
    """Constant per-user outer products h_k h_k^H split into re/im parts.

    Returns (B, K, N, N) float arrays (t_re, t_im) with
    h h^H = t_re + i t_im for each user row.
    """
    hr, hi = h_batch.real, h_batch.imag
    t_re = np.einsum("bkn,bkm->bknm", hr, hr) + np.einsum("bkn,bkm->bknm", hi, hi)
    t_im = np.einsum("bkn,bkm->bknm", hi, hr) - np.einsum("bkn,bkm->bknm", hr, hi)
    return t_re, t_im


def reconstruct_and_loss(
    tape,
    leaves,
    h_batch,
    cfg,
    v_current=None,
    variant="corrected",
    reduction="mean",
):
    """Loss of the reconstructed beamformers for a channel batch.

    Predicts (u, w, mu), assembles S = sum_k alpha_k |u_k|^2 w_k h_k h_k^H,
    solves (S + mu I) x_k = h_k, scales columns by alpha_k u_k w_k, projects
    the result onto the power budget, and returns the negated average-rate
    loss reduced over the batch ("mean" or "sum"). The loss value agrees with
    objective.sum_rate_loss evaluated on the reconstructed beamformers.

    A task-batched h_batch (T, B, K, N) with per-task leaves runs the nets per
    task and everything after them on the T*B samples at once; the loss node
    then holds one reduced loss per task, shape (T,).

    Returns (loss_node, v_hat) with v_hat the (B, N, K) complex values of the
    normalized beamformers, (T, B, N, K) when task-batched (forward values,
    not nodes).
    """
    h_batch = np.asarray(h_batch, dtype=np.complex128)
    tasks = h_batch.shape[:-3]
    per_task, k, n = h_batch.shape[-3:]
    if per_task == 0:
        raise ValueError("batch must hold at least one realization")
    h_batch = h_batch.reshape(-1, k, n)
    b = h_batch.shape[0]
    if v_current is None:
        v_current = make_v_current(h_batch, cfg)
    features = encode_features(h_batch, v_current)
    comps = predict_components(
        tape, leaves, features.reshape(*tasks, per_task, -1), cfg
    )
    alpha = cfg.alpha_vec

    # c_k = alpha_k |u_k|^2 w_k, the rank-one coefficients of S
    u2 = ad.add(ad.square(comps.u_re), ad.square(comps.u_im))
    c = ad.mul(ad.mul(u2, comps.w), tape.const(np.broadcast_to(alpha, (b, k)).copy()))
    t_re, t_im = _outer_products(h_batch)
    s_re = ad.weighted_const_sum(c, t_re)
    s_im = ad.weighted_const_sum(c, t_im)

    # x_k = (S + mu I)^{-1} h_k for all users at once
    rhs = np.transpose(h_batch, (0, 2, 1)).copy()
    x = ad.csolve_hpd(s_re, s_im, comps.mu, rhs)
    x_re, x_im = ad.take_part(x, 0), ad.take_part(x, 1)

    # v_k = (alpha_k w_k u_k) x_k, complex scaling per column
    aw = ad.mul(comps.w, tape.const(np.broadcast_to(alpha, (b, k)).copy()))
    s_scale_re = ad.reshape(ad.mul(aw, comps.u_re), (b, 1, k))
    s_scale_im = ad.reshape(ad.mul(aw, comps.u_im), (b, 1, k))
    v_re = ad.sub(ad.mul(x_re, s_scale_re), ad.mul(x_im, s_scale_im))
    v_im = ad.add(ad.mul(x_re, s_scale_im), ad.mul(x_im, s_scale_re))

    # project onto the power budget: v <- v * sqrt(P / ||v||_F^2)
    pw = ad.add(
        ad.reduce_sum(ad.square(v_re), axis=(1, 2), keepdims=True),
        ad.reduce_sum(ad.square(v_im), axis=(1, 2), keepdims=True),
    )
    if np.any(pw.value == 0.0):
        raise DegenerateInputError(
            "reconstructed beamformer is zero for a sample (all u_k = 0)"
        )
    gain = ad.sqrt(ad.div(tape.const(np.full((b, 1, 1), cfg.p)), pw))
    v_re = ad.mul(v_re, gain)
    v_im = ad.mul(v_im, gain)

    # couplings |h_k^H v_j|^2 and the negated average rate
    c_re, c_im = h_batch.real, -h_batch.imag  # conj(H)
    g_re = ad.sub(ad.bmm_const_left(c_re, v_re), ad.bmm_const_left(c_im, v_im))
    g_im = ad.add(ad.bmm_const_left(c_re, v_im), ad.bmm_const_left(c_im, v_re))
    a2 = ad.add(ad.square(g_re), ad.square(g_im))
    signal = ad.bdiag(a2)
    if variant == "corrected":
        interference = ad.sub(ad.reduce_sum(a2, axis=2), signal)
        denom = ad.add_const(interference, cfg.sigma2)
    elif variant == "verbatim":
        diag_total = ad.reduce_sum(signal, axis=1, keepdims=True)
        denom = ad.add_const(ad.sub(diag_total, signal), cfg.sigma2)
    else:
        raise ValueError(f"unknown loss variant {variant!r}")
    rates = ad.log1p(ad.div(signal, denom))
    if reduction == "mean":
        factor = -1.0 / (k * per_task)
    elif reduction == "sum":
        factor = -1.0 / k
    else:
        raise ValueError(f"unknown reduction {reduction!r}")
    if tasks:
        total = ad.reduce_sum(ad.reshape(rates, (*tasks, per_task * k)), axis=-1)
    else:
        total = ad.reduce_sum(rates)
    v_hat = v_re.value + 1j * v_im.value
    return ad.scale(total, factor), v_hat.reshape(*tasks, per_task, n, k)


# Forward-only twin used by evaluation and memory scoring (no tape, no grads).


def predict_components_np(params, features, cfg):
    """(u, w, mu) values on plain arrays; mirrors predict_components."""
    k = cfg.k
    u_raw = nn.mlp_forward_np(params.u_net, features)
    w_raw = nn.mlp_forward_np(params.w_net, features)
    mu_raw = nn.mlp_forward_np(params.mu_net, features)
    u = u_raw[:, :k] + 1j * u_raw[:, k : 2 * k]
    w = 1.0 + np.logaddexp(0.0, w_raw)
    mu = np.logaddexp(0.0, mu_raw[:, 0]) + mu_floor(cfg)
    return u, w, mu


def predict_beamformers(params, h_batch, cfg, v_current=None):
    """Normalized reconstructed beamformers (B, N, K); mirrors the tape path."""
    h_batch = np.asarray(h_batch, dtype=np.complex128)
    b, k, n = h_batch.shape
    if v_current is None:
        v_current = make_v_current(h_batch, cfg)
    u, w, mu = predict_components_np(
        params, encode_features(h_batch, v_current), cfg
    )
    alpha = cfg.alpha_vec
    coeff = alpha[None, :] * np.abs(u) ** 2 * w
    t_re, t_im = _outer_products(h_batch)
    s = np.einsum("bk,bknm->bnm", coeff, t_re) + 1j * np.einsum(
        "bk,bknm->bnm", coeff, t_im
    )
    s += mu[:, None, None] * np.eye(n)
    x = np.linalg.solve(s, np.transpose(h_batch, (0, 2, 1)))
    v = x * (alpha[None, :] * w * u)[:, None, :]
    pw = np.sum(np.abs(v) ** 2, axis=(1, 2))
    if np.any(pw == 0.0):
        raise DegenerateInputError(
            "reconstructed beamformer is zero for a sample (all u_k = 0)"
        )
    return v * np.sqrt(cfg.p / pw)[:, None, None]


def evaluate_wsr(params, h_batch, cfg, v_current=None):
    """Per-sample weighted sum rate of the predicted beamformers, (B,)."""
    v = predict_beamformers(params, h_batch, cfg, v_current=v_current)
    return objective.batch_wsr(h_batch, v, cfg)


def per_sample_losses(params, h_batch, cfg, variant="corrected", v_current=None):
    """Per-sample negated average rate of the predicted beamformers, (B,)."""
    v = predict_beamformers(params, h_batch, cfg, v_current=v_current)
    return objective.batch_sample_losses(h_batch, v, cfg, variant=variant)
