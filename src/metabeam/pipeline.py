"""Differentiable component prediction and beamformer reconstruction.

Given a batch of channels, three small MLPs predict the decomposed solver
state (u, w, mu); the beamformer is rebuilt in closed form through a batched
Hermitian solve, scaled to the power budget, and scored by the negated
average rate. The whole chain runs on the autodiff tape, so gradients flow
from the rate loss back into the network parameters. After one node per net
the tape holds closed-form nodes only: Re S and Im S and mu on the raw net
outputs, the Hermitian solve, and one rate-loss node for everything after
the solve. Every forward value on the tape comes from the forward-only
twin's own code: the nets' layer loop (nn.mlp_forward), the output maps
(_heads), the S assembly (wmmse.assemble_s), S + mu I and its solve
(linalg.hpd_solve; built as in wmmse.reconstruct_v, the twin's), the column
scales (wmmse.column_scales), the power projection (linalg.scale_to_power)
and the rate terms (objective.gains and objective.signal_denom). So the
tape's beamformers equal the twin's to the bit; the twin, the tape and the
solver's eigenbasis solve share one singularity policy, linalg.check_pivots.

Input encoding, built only by features (per sample, length 4*N*K):
    [Re H (row-major K x N), Im H, Re V (row-major N x K), Im V]
where V = wmmse.mrt_beamformer(H), the matched filter at full power.
"""

import numpy as np

from . import autodiff as ad
from . import nn, objective, wmmse
from .linalg import normalize_to_power, scale_to_power

MU_FLOOR = 1e-4  # predicted mu >= MU_FLOOR keeps the solve definite


def features(h_batch, cfg):
    """Re/im of channels (..., K, N) and of their matched filters, (..., 4NK);
    each row has the bits of a call on its sample alone."""
    h_batch = np.asarray(h_batch, dtype=np.complex128)
    v = wmmse.mrt_beamformer(h_batch, cfg)
    parts = (h_batch.real, h_batch.imag, v.real, v.imag)
    return np.concatenate([p.reshape(*h_batch.shape[:-2], -1) for p in parts], axis=-1)


def reconstruct_and_loss(tape, leaves, h_batch, features, cfg, variant="corrected",
                         reduction="mean"):
    """Loss of the reconstructed beamformers for a channel batch.

    Predicts (u, w, mu), assembles S = sum_k alpha_k |u_k|^2 w_k h_k h_k^H,
    solves (S + mu I) x_k = h_k, scales columns by alpha_k w_k u_k, projects
    the result onto the power budget, and returns the negated average-rate
    loss reduced over the batch ("mean" or "sum"). The loss value agrees with
    objective.sum_rate_loss evaluated on the reconstructed beamformers.
    features is features(h_batch, cfg), computed once for all passes on it.

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
    raw = (ad.mlp(tape, features, w, b) for w, b in leaves.nets())
    loss, v_hat = _head_and_loss(tape, *raw, h_batch, cfg, variant, factor, tasks)
    return loss, v_hat.reshape(*tasks, per_task, n, k)


def _head_and_loss(tape, u_raw, w_raw, mu_raw, h_batch, cfg, variant, factor, tasks):
    """Everything after the nets, from their raw output nodes to the loss:
    Re S and Im S on the raw u and w outputs, mu on the raw mu output, the
    solve and the rate loss. Returns (loss_node, v) as _rate_loss does.

    The values are the twin's: _heads, then S = wmmse.assemble_s(h, u, w) =
    sum_k c_k h_k h_k^H with c_k = alpha_k |u_k|^2 w_k. The adjoint G of
    either part of S gives cbar_k = Re or Im of h_k^T G conj(h_k); with
    h = a + ib these are a^T G a + b^T G b and b^T G a - a^T G b, so one real
    batched matmul [a; b] G serves either. Then ubar = 2 alpha w cbar u and
    wbar = alpha |u|^2 cbar.
    """
    k, alpha = cfg.k, cfg.alpha_vec
    u, w, mu = _heads(*(r.value.reshape(len(h_batch), -1) for r in (u_raw, w_raw, mu_raw)),
                      cfg)
    s = wmmse.assemble_s(h_batch, u, w, cfg)
    a, b = h_batch.real, h_batch.imag
    ab = np.concatenate([a, b], axis=1)  # (B, 2K, N)
    dc_du, dc_dw = 2.0 * alpha * w * u, alpha * np.abs(u) ** 2
    sig_w, sig_mu = _sigmoid(w_raw.value), _sigmoid(mu_raw.value)

    def s_node(part, partner, op):
        def backward(g):
            q = np.einsum("bkn,bkn->bk", ab @ g, partner)
            c_bar = q[:, :k] + q[:, k:]
            return _raw_adjoints(u_raw, sig_w, dc_du * c_bar, dc_dw * c_bar)

        return tape.record(part, (u_raw, w_raw), backward, op)

    s_re = s_node(s.real, ab, "s_re")
    s_im = s_node(s.imag, np.concatenate([-b, a], axis=1), "s_im")
    mu = tape.record(mu, (mu_raw,), lambda g: (g.reshape(sig_mu.shape) * sig_mu,), "mu")
    # x_k = (S + mu I)^{-1} h_k for all users at once
    rhs = np.transpose(h_batch, (0, 2, 1)).copy()
    x = ad.csolve_hpd(tape, s_re, s_im, mu, rhs)
    return _rate_loss(tape, x, u_raw, w_raw, sig_w, u, w, h_batch, rhs, cfg, variant,
                      factor, tasks)


def _heads(u_raw, w_raw, mu_raw, cfg):
    """The output maps from the raw net outputs to (u, w, mu), over any
    leading axes.

    u is read as K (re, im) pairs; w = 1 + softplus(.) >= 1 mirrors the
    weight identity w = 1 + SINR; mu = softplus(.) + MU_FLOOR stays positive
    so the downstream solve is always definite.
    """
    k = cfg.k
    u = u_raw[..., :k] + 1j * u_raw[..., k:]
    w = 1.0 + np.logaddexp(0.0, w_raw)
    mu = np.logaddexp(0.0, mu_raw[..., 0]) + MU_FLOOR
    return u, w, mu


def _sigmoid(x):
    """The derivative of softplus, exactly 0 far below zero."""
    with np.errstate(over="ignore"):  # exp(-x) -> inf gives the exact limit 0
        return 1.0 / (1.0 + np.exp(-x))


def _raw_adjoints(u_raw, sig_w, u_bar, w_bar):
    """Adjoints of the raw u and w net outputs from those of u (complex,
    Re + i Im) and of w through the maps of _heads; sig_w = _sigmoid(raw w)."""
    return (np.concatenate([u_bar.real, u_bar.imag], axis=-1).reshape(u_raw.shape),
            w_bar.reshape(sig_w.shape) * sig_w)


def _rate_loss(tape, x, u_raw, w_raw, sig_w, u, w, h_batch, h_t, cfg, variant, factor, tasks):
    """One tape node from the solved columns X (complex) and the raw u and
    w net outputs to the reduced loss; u, w and sig_w are as _head_and_loss
    computes them.

    Forward: the forward twin's arithmetic (wmmse.column_scales,
    scale_to_power, then objective.gains and objective.signal_denom) and
    factor times each task's sum of the per-user rates
    r_k = ln(1 + signal_k / denom_k). Backward in closed form
    (Giles 2008), per sample with Y = X diag(s), s = alpha w u,
    p = ||Y||_F^2, g = sqrt(P / p), V = g Y, G = conj(H) V, A2 = |G|^2:
      corrected: dr_k/dA2_kj = 1/(T_k + 1) - [j != k]/(I_k + 1),
        with T_k the total received power of user k and I_k its interference;
      verbatim: only d_j = A2_jj enters, dr_k/dd_j = 1/(T + 1) -
        [j != k]/denom_k with T the sum of the d_j;
      Gbar = 2 dA2 * G, Vbar = H^T Gbar, Ybar = g Vbar - (g/p) Re<Vbar, Y> Y,
      Xbar = Ybar diag(conj s), sbar_k = sum_n conj(X_nk) Ybar_nk,
    then ubar = alpha w sbar and wbar = alpha Re(conj(u) sbar), mapped onto
    the raw outputs by _raw_adjoints.
    Xbar is complex, dL/dRe X + i dL/dIm X, as csolve_hpd takes it.
    Returns (loss_node, v) with v the (T*B, N, K) normalized beamformers.
    """
    xc = x.value
    s = wmmse.column_scales(u, w, cfg)
    y = xc * s[:, None, :]  # x diag(s)
    v, pw = scale_to_power(y, cfg.p)
    gains = objective.gains(h_batch, v)
    a2 = np.abs(gains) ** 2
    signal, denom = objective.signal_denom(a2, variant)
    rates = np.log1p(signal / denom)
    total = rates.reshape(*tasks, -1).sum(axis=-1)
    b, k = rates.shape
    idx = np.arange(k)
    alpha = cfg.alpha_vec

    def backward(g_loss):
        dr = np.reshape(g_loss * factor, -1)
        dr = np.repeat(dr, b // len(dr))[:, None]  # (b, 1): each row's task adjoint
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
        return (
            x_bar,
            *_raw_adjoints(u_raw, sig_w, alpha * w * s_bar,
                           alpha * (u.real * s_bar.real + u.imag * s_bar.imag)),
        )

    return tape.record(total * factor, (x, u_raw, w_raw), backward, "rate_loss"), v


# Forward-only twin used by evaluation and memory scoring (no tape, no grads).


def predict_beamformers(params, h_batch, cfg):
    """Normalized reconstructed beamformers (B, N, K); mirrors the tape path.

    The three nets run through nn.mlp_forward, the loop of the tape's mlp
    nodes, and _heads maps their outputs to (u, w, mu); the triples go
    through wmmse.reconstruct_v (the solver's V to rounding), then onto the
    power budget.
    """
    h_batch = np.asarray(h_batch, dtype=np.complex128)
    x = features(h_batch, cfg)
    raw = (nn.mlp_forward(x, w, b)[-1] for w, b in params.nets())
    v = wmmse.reconstruct_v(h_batch, *_heads(*raw, cfg), cfg)
    return normalize_to_power(v, cfg.p)


def evaluate_wsr(params, h_batch, cfg):
    """Per-sample weighted sum rate of the predicted beamformers, (B,)."""
    v = predict_beamformers(params, h_batch, cfg)
    return objective.wsr(h_batch, v, cfg)


def per_sample_losses(params, h_batch, cfg, variant="corrected"):
    """Per-sample negated average rate of the predicted beamformers, (B,)."""
    v = predict_beamformers(params, h_batch, cfg)
    return objective.sum_rate_loss(h_batch, v, variant=variant)
