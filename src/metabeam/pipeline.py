"""Differentiable component prediction and beamformer reconstruction.

Given a batch of channels, three small MLPs predict the decomposed solver
state (u, w, mu); the beamformer is rebuilt in closed form through a batched
Hermitian solve, scaled to the power budget, and scored by the negated
average rate. The whole chain runs on the autodiff tape, so gradients flow
from the rate loss back into the network parameters. The tape holds one node
per net, a few elementwise nodes for the output maps and the coefficients of
S, the Hermitian solve, and one rate-loss node with a closed-form backward
for everything after the solve. The forward-only twin rebuilds its
beamformers through wmmse.reconstruct_v, the solver's own reconstruction, so
the solver, the twin and the tape's solve node share linalg.hpd_solve and
its singularity policy. The tape and the twin share the column scales
(wmmse.column_scales), the power projection (_to_power) and the rate terms
(objective.batch_signal_denom).

Input encoding (per sample, length 4*N*K):
    [Re H (row-major K x N), Im H, Re V_cur (row-major N x K), Im V_cur]
where V_cur is the matched-filter beamformer at full power.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import nn, objective, wmmse
from .errors import DegenerateInputError

MU_FLOOR_SCALE = 1e-4  # mu >= MU_FLOOR_SCALE * sigma2 keeps the solve definite


def mu_floor(cfg):
    return MU_FLOOR_SCALE * cfg.sigma2


def make_v_current(h_batch, cfg):
    """Reference beamformer fed to the encoder: matched-filter columns
    v_k = h_k scaled to the power budget."""
    return _to_power(np.transpose(h_batch, (0, 2, 1)).copy(), cfg)[0]


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


def reconstruct_and_loss(tape, leaves, h_batch, cfg, variant="corrected",
                         reduction="mean"):
    """Loss of the reconstructed beamformers for a channel batch.

    Predicts (u, w, mu), assembles S = sum_k alpha_k |u_k|^2 w_k h_k h_k^H,
    solves (S + mu I) x_k = h_k, scales columns by alpha_k w_k u_k, projects
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
    if reduction == "mean":
        factor = -1.0 / (k * per_task)
    elif reduction == "sum":
        factor = -1.0 / k
    else:
        raise ValueError(f"unknown reduction {reduction!r}")
    h_batch = h_batch.reshape(-1, k, n)
    features = encode_features(h_batch, make_v_current(h_batch, cfg))
    comps = predict_components(
        tape, leaves, features.reshape(*tasks, per_task, -1), cfg
    )

    # c_k = alpha_k |u_k|^2 w_k, the rank-one coefficients of S
    u2 = ad.add(ad.square(comps.u_re), ad.square(comps.u_im))
    c = ad.scale(ad.mul(u2, comps.w), cfg.alpha_vec)
    t_re, t_im = _outer_products(h_batch)
    s_re = ad.weighted_const_sum(c, t_re)
    s_im = ad.weighted_const_sum(c, t_im)

    # x_k = (S + mu I)^{-1} h_k for all users at once
    rhs = np.transpose(h_batch, (0, 2, 1)).copy()
    x = ad.csolve_hpd(s_re, s_im, comps.mu, rhs)
    loss, v_hat = _rate_loss(x, comps, h_batch, rhs, cfg, variant, factor, tasks)
    return loss, v_hat.reshape(*tasks, per_task, n, k)


def _rate_loss(x, comps, h_batch, h_t, cfg, variant, factor, tasks):
    """One tape node from the solved columns to the reduced loss.

    Forward: the forward twin's arithmetic (wmmse.column_scales, _to_power,
    then objective.batch_signal_denom) and factor times each task's sum of the
    per-user rates r_k = ln(1 + signal_k / denom_k). Backward in closed form
    (Giles 2008), per sample with Y = X diag(s), s = alpha w u,
    p = ||Y||_F^2, g = sqrt(P / p), V = g Y, G = conj(H) V, A2 = |G|^2:
      corrected: dr_k/dA2_kj = 1/(T_k + sigma2) - [j != k]/(I_k + sigma2),
        with T_k the total received power of user k and I_k its interference;
      verbatim: only d_j = A2_jj enters, dr_k/dd_j = 1/(T + sigma2) -
        [j != k]/denom_k with T the sum of the d_j;
      Gbar = 2 dA2 * G, Vbar = H^T Gbar, Ybar = g Vbar - (g/p) Re<Vbar, Y> Y,
      Xbar = Ybar diag(conj s), sbar_k = sum_n conj(X_nk) Ybar_nk,
    then ubar = alpha w sbar and wbar = alpha Re(conj(u) sbar).
    Returns (loss_node, v) with v the (T*B, N, K) normalized beamformers.
    """
    xv = x.value
    xc = xv[:, 0] + 1j * xv[:, 1]
    u_re, u_im, w = comps.u_re.value, comps.u_im.value, comps.w.value
    s = wmmse.column_scales(u_re + 1j * u_im, w, cfg)
    y = xc * s[:, None, :]  # x diag(s)
    v, pw = _to_power(y, cfg)
    gains = objective.batch_gains(h_batch, v)
    a2 = np.abs(gains) ** 2
    signal, denom = objective.batch_signal_denom(a2, cfg, variant)
    rates = np.log1p(signal / denom)
    total = rates.reshape(*tasks, -1).sum(axis=-1)
    b, k = rates.shape
    idx = np.arange(k)
    alpha = cfg.alpha_vec

    def backward(g_loss):
        dr = np.reshape(g_loss * factor, (-1, 1, 1))
        dr = np.broadcast_to(dr, (len(dr), b // len(dr), k)).reshape(b, k)
        d_tot = dr / (denom + signal)
        d_int = dr / denom
        if variant == "corrected":
            da2 = np.repeat((d_tot - d_int)[:, :, None], k, axis=2)
            da2[:, idx, idx] = d_tot
        else:
            da2 = np.zeros_like(a2)
            da2[:, idx, idx] = d_tot.sum(axis=1, keepdims=True) - (
                d_int.sum(axis=1, keepdims=True) - d_int
            )
        v_bar = h_t @ (2.0 * da2 * gains)
        inner = np.sum(v_bar.real * y.real + v_bar.imag * y.imag, axis=(1, 2))
        gain = np.sqrt(cfg.p / pw)
        y_bar = gain[:, None, None] * v_bar - (gain * inner / pw)[:, None, None] * y
        x_bar = y_bar * np.conj(s)[:, None, :]
        s_bar = np.sum(np.conj(xc) * y_bar, axis=1)
        aw = alpha * w
        return (
            np.stack([x_bar.real, x_bar.imag], axis=1),
            aw * s_bar.real,
            aw * s_bar.imag,
            alpha * (u_re * s_bar.real + u_im * s_bar.imag),
        )

    parents = (x, comps.u_re, comps.u_im, comps.w)
    return x.tape.record(total * factor, parents, backward, "rate_loss"), v


def _to_power(y, cfg):
    """Project each (N, K) sample onto the power budget: v = y sqrt(P / p)
    with p = ||y||_F^2. Returns (v, p)."""
    pw = np.sum(np.abs(y) ** 2, axis=(1, 2))
    if np.any(pw == 0.0):
        raise DegenerateInputError(
            "beamformer is zero for a sample (a zero channel, or all u_k = 0)"
        )
    return y * np.sqrt(cfg.p / pw)[:, None, None], pw


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


def predict_beamformers(params, h_batch, cfg):
    """Normalized reconstructed beamformers (B, N, K); mirrors the tape path.

    The predicted triples go through the solver's reconstruction
    (wmmse.reconstruct_v), then onto the power budget.
    """
    h_batch = np.asarray(h_batch, dtype=np.complex128)
    features = encode_features(h_batch, make_v_current(h_batch, cfg))
    comps = wmmse.ComponentTriple(*predict_components_np(params, features, cfg))
    return _to_power(wmmse.reconstruct_v(h_batch, comps, cfg), cfg)[0]


def evaluate_wsr(params, h_batch, cfg):
    """Per-sample weighted sum rate of the predicted beamformers, (B,)."""
    v = predict_beamformers(params, h_batch, cfg)
    return objective.batch_wsr(h_batch, v, cfg)


def per_sample_losses(params, h_batch, cfg, variant="corrected"):
    """Per-sample negated average rate of the predicted beamformers, (B,)."""
    v = predict_beamformers(params, h_batch, cfg)
    return objective.batch_sample_losses(h_batch, v, cfg, variant=variant)
