"""Prediction pipeline: encoding, output ranges, loss identity, twins."""

import numpy as np
import pytest

from metabeam import autodiff as ad
from metabeam import nn, objective, pipeline, wmmse
from metabeam.errors import DegenerateInputError, SingularMatrixError
from metabeam.objective import SystemConfig


def rand_batch(rng, b, k, n):
    return (rng.standard_normal((b, k, n)) + 1j * rng.standard_normal((b, k, n))) / np.sqrt(2.0)


def setup(rng, b=6, k=3, n=3, width=8):
    cfg = SystemConfig(n=n, k=k, sigma2=1.0, p=10.0)
    params = nn.init_predictor(rng, n, k, width=width)
    h = rand_batch(rng, b, k, n)
    return cfg, params, h


def test_mrt_beamformer_batch_power_and_direction():
    # the encoder's reference beamformer: matched filter per sample
    rng = np.random.default_rng(0)
    cfg, _, h = setup(rng)
    v = wmmse.mrt_beamformer(h, cfg)
    pw = np.sum(np.abs(v) ** 2, axis=(1, 2))
    np.testing.assert_allclose(pw, cfg.p, rtol=1e-12)
    # columns are the channel rows, up to the single per-sample gain
    ratio = v[0] / h[0].T
    np.testing.assert_allclose(ratio, ratio.flat[0], rtol=1e-12)


def test_mrt_beamformer_rejects_zero_channel_in_batch():
    cfg = SystemConfig(n=2, k=2)
    h = np.ones((3, 2, 2), dtype=complex)
    h[1] = 0.0
    with pytest.raises(DegenerateInputError):
        wmmse.mrt_beamformer(h, cfg)


def test_encode_features_layout():
    # One sample, K=1, N=2: [Re H, Im H, Re V, Im V] in row-major order.
    cfg = SystemConfig(n=2, k=1)
    h = np.array([[[1.0 + 2.0j, 3.0 + 4.0j]]])
    v = np.array([[[5.0 + 6.0j], [7.0 + 8.0j]]])
    feats = pipeline.encode_features(h, v)
    np.testing.assert_array_equal(feats, [[1.0, 3.0, 2.0, 4.0, 5.0, 7.0, 6.0, 8.0]])
    assert feats.shape[1] == nn.feature_dim(2, 1)


def test_predicted_ranges():
    rng = np.random.default_rng(2)
    cfg, params, h = setup(rng, b=10)
    feats = pipeline.encode_features(h, wmmse.mrt_beamformer(h, cfg))
    u, w, mu = pipeline.predict_components_np(params, feats, cfg)
    assert u.shape == (10, 3) and u.dtype == np.complex128
    assert np.all(w >= 1.0)
    assert np.all(mu >= pipeline.mu_floor(cfg))
    assert pipeline.mu_floor(cfg) == pytest.approx(1e-4 * cfg.sigma2)


def test_predict_components_tape_matches_np():
    rng = np.random.default_rng(3)
    cfg, params, h = setup(rng)
    feats = pipeline.encode_features(h, wmmse.mrt_beamformer(h, cfg))
    tape = ad.Tape()
    leaves, _ = nn.leaves_for(tape, params)
    comps = pipeline.predict_components(tape, leaves, feats, cfg)
    u, w, mu = pipeline.predict_components_np(params, feats, cfg)
    np.testing.assert_allclose(comps.u_re.value + 1j * comps.u_im.value, u, atol=1e-13)
    np.testing.assert_allclose(comps.w.value, w, atol=1e-13)
    np.testing.assert_allclose(comps.mu.value, mu, atol=1e-13)


def test_loss_equals_objective_on_reconstruction():
    rng = np.random.default_rng(4)
    cfg, params, h = setup(rng)
    for variant in ("corrected", "verbatim"):
        tape = ad.Tape()
        leaves, _ = nn.leaves_for(tape, params)
        loss, v_hat = pipeline.reconstruct_and_loss(
            tape, leaves, h, cfg, variant=variant
        )
        per_sample = objective.sum_rate_loss(h, v_hat, cfg, variant=variant)
        assert float(loss.value) == pytest.approx(per_sample.mean(), abs=1e-12)


def test_loss_sum_reduction_is_batch_sum():
    rng = np.random.default_rng(5)
    cfg, params, h = setup(rng, b=4)
    tape = ad.Tape()
    leaves, _ = nn.leaves_for(tape, params)
    loss, v_hat = pipeline.reconstruct_and_loss(tape, leaves, h, cfg, reduction="sum")
    per_sample = objective.sum_rate_loss(h, v_hat, cfg)
    assert float(loss.value) == pytest.approx(per_sample.sum(), abs=1e-12)
    with pytest.raises(ValueError):
        pipeline.reconstruct_and_loss(tape, leaves, h, cfg, reduction="median")


def test_loss_variants_differ_for_multiuser():
    rng = np.random.default_rng(6)
    cfg, params, h = setup(rng)
    vals = {}
    for variant in ("corrected", "verbatim"):
        tape = ad.Tape()
        leaves, _ = nn.leaves_for(tape, params)
        loss, _ = pipeline.reconstruct_and_loss(tape, leaves, h, cfg, variant=variant)
        vals[variant] = float(loss.value)
    assert vals["corrected"] != vals["verbatim"]


def test_forward_twin_matches_tape_reconstruction():
    rng = np.random.default_rng(7)
    cfg, params, h = setup(rng)
    tape = ad.Tape()
    leaves, _ = nn.leaves_for(tape, params)
    _, v_hat = pipeline.reconstruct_and_loss(tape, leaves, h, cfg)
    v_np = pipeline.predict_beamformers(params, h, cfg)
    np.testing.assert_allclose(v_np, v_hat, atol=1e-12)


def test_twin_and_tape_share_the_singularity_policy():
    # K=1 < N=3 makes S rank one, and a u near 1e6 puts its trace about 1e12
    # times above the mu shift: every Cholesky factorization succeeds, but
    # the pivot rule of linalg.hpd_solve rejects the matrices on both paths.
    rng = np.random.default_rng(9)
    cfg, params, h = setup(rng, k=1)
    params.u_net.biases[-1][:] = 1e6
    with pytest.raises(SingularMatrixError):
        pipeline.predict_beamformers(params, h, cfg)
    tape = ad.Tape()
    leaves, _ = nn.leaves_for(tape, params)
    with pytest.raises(SingularMatrixError):
        pipeline.reconstruct_and_loss(tape, leaves, h, cfg)


def test_reconstructed_power_is_on_budget():
    rng = np.random.default_rng(8)
    cfg, params, h = setup(rng, b=12)
    v = pipeline.predict_beamformers(params, h, cfg)
    pw = np.sum(np.abs(v) ** 2, axis=(1, 2))
    np.testing.assert_allclose(pw, cfg.p, rtol=1e-12)


def test_evaluate_wsr_consistent_with_objective():
    rng = np.random.default_rng(9)
    cfg, params, h = setup(rng, b=5)
    v = pipeline.predict_beamformers(params, h, cfg)
    np.testing.assert_allclose(
        pipeline.evaluate_wsr(params, h, cfg), objective.wsr(h, v, cfg), rtol=1e-13
    )
    # per-sample losses and rates are base-change twins for unit weights
    losses = pipeline.per_sample_losses(params, h, cfg)
    rates = pipeline.evaluate_wsr(params, h, cfg)
    np.testing.assert_allclose(rates, -cfg.k * losses / np.log(2.0), rtol=1e-12)


def test_zero_u_prediction_raises():
    rng = np.random.default_rng(10)
    cfg, params, h = setup(rng)
    params.u_net.weights[-1][:] = 0.0
    params.u_net.biases[-1][:] = 0.0  # remove the output bias: u == 0
    with pytest.raises(DegenerateInputError):
        pipeline.predict_beamformers(params, h, cfg)
    tape = ad.Tape()
    leaves, _ = nn.leaves_for(tape, params)
    with pytest.raises(DegenerateInputError):
        pipeline.reconstruct_and_loss(tape, leaves, h, cfg)


def test_empty_batch_rejected():
    rng = np.random.default_rng(11)
    cfg, params, _ = setup(rng)
    tape = ad.Tape()
    leaves, _ = nn.leaves_for(tape, params)
    with pytest.raises(ValueError):
        pipeline.reconstruct_and_loss(tape, leaves, np.zeros((0, 3, 3), complex), cfg)


def test_full_pipeline_gradient_smoke():
    # End-to-end gradient through nets, solve, projection, and rate loss.
    rng = np.random.default_rng(12)
    cfg = SystemConfig(n=2, k=2, sigma2=1.0, p=10.0)
    params = nn.init_predictor(rng, 2, 2, width=8)
    h = rand_batch(rng, 3, 2, 2)

    def f(vec):
        p = nn.unpack(vec, params)
        tape = ad.Tape()
        leaves, flat = nn.leaves_for(tape, p)
        loss, _ = pipeline.reconstruct_and_loss(tape, leaves, h, cfg)
        grads = ad.grad(tape, loss, flat)
        return float(loss.value), np.concatenate([g.ravel() for g in grads])

    err, ok, _ = ad.finite_diff_check(
        f, nn.pack(params), h=1e-5, rel_tol=1e-4, coords=30, rng=np.random.default_rng(0)
    )
    assert ok, f"max relative error {err:.3e}"


@pytest.mark.parametrize("variant", ["corrected", "verbatim"])
@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("tasks", [(), (3,)])
def test_rate_loss_node_matches_fd(variant, reduction, tasks):
    # The closed-form adjoint of the node from the solved columns x and the
    # components (u_re, u_im, w) to the reduced loss, against central
    # differences in every coordinate. With tasks the per-task losses enter
    # with distinct weights, so each task's adjoint must reach its own rows.
    rng = np.random.default_rng(13)
    per_task, n, k = 4, 3, 3
    cfg = SystemConfig(n=n, k=k, sigma2=0.5, p=10.0, alpha=(1.0, 0.5, 2.0))
    b = per_task * int(np.prod(tasks))
    h = rand_batch(rng, b, k, n)
    factor = -1.0 / (k * per_task) if reduction == "mean" else -1.0 / k
    shapes = [(b, 2, n, k), (b, k), (b, k), (b, k)]
    sizes = [int(np.prod(sh)) for sh in shapes]
    task_weights = np.array([1.0, -2.0, 0.5])

    def f(vec):
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        tape = ad.Tape()
        x, u_re, u_im, w = [tape.leaf(p.reshape(sh)) for p, sh in zip(parts, shapes)]
        comps = pipeline.ComponentNodes(u_re=u_re, u_im=u_im, w=w, mu=None)
        loss, _ = pipeline._rate_loss(
            x, comps, h, np.transpose(h, (0, 2, 1)).copy(), cfg, variant, factor, tasks
        )
        if tasks:
            assert loss.shape == tasks
            loss = ad.reduce_sum(ad.scale(loss, task_weights))
        grads = ad.grad(tape, loss, [x, u_re, u_im, w])
        return float(loss.value), np.concatenate([g.ravel() for g in grads])

    x0 = np.concatenate([
        rng.standard_normal(sizes[0]),
        rng.standard_normal(sizes[1]),
        rng.standard_normal(sizes[2]),
        1.0 + np.abs(rng.standard_normal(sizes[3])),
    ])
    # The node is smooth (no kinks), so a wide step keeps rounding out of the
    # differences and no probe may be skipped.
    err, ok, skipped = ad.finite_diff_check(f, x0, h=1e-4, rel_tol=1e-5, kink_tol=1.0)
    assert ok and skipped == 0, f"max relative error {err:.3e}"


def test_reference_shape_pass_records_at_most_40_nodes():
    # N = K = 3, width-64 nets, B = 40: 18 parameter leaves, the features,
    # one node per net and one rate-loss node after the solve.
    rng = np.random.default_rng(14)
    cfg, params, h = setup(rng, b=40, width=64)
    tape = ad.Tape()
    leaves, _ = nn.leaves_for(tape, params)
    pipeline.reconstruct_and_loss(tape, leaves, h, cfg)
    assert len(tape) <= 40
    assert [node.op for node in tape.nodes].count("mlp") == 3
