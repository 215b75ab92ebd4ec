"""Prediction pipeline: encoding, output ranges, loss identity, twins."""

import warnings

import numpy as np
import pytest

from metabeam import autodiff as ad
from metabeam import nn, objective, pipeline, wmmse
from metabeam.errors import DegenerateInputError, SingularMatrixError
from metabeam.objective import SystemConfig


def rand_batch(rng, b, k, n):
    return (rng.standard_normal((b, k, n)) + 1j * rng.standard_normal((b, k, n))) / np.sqrt(2.0)


def setup(rng, b=6, k=3, n=3, width=8):
    cfg = SystemConfig(n=n, k=k, p=10.0)
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


def test_features_of_gathered_rows_are_the_gathered_features():
    # Featurizing works per sample: any gather of a featurized batch has the
    # bits of featurizing the gathered channels, over any leading axes, even
    # when one matrix has an entry above 1e150 and sends the whole batch's
    # power projection down its slow path.
    rng = np.random.default_rng(15)
    cfg, _, h = setup(rng, b=8)
    h[3, 1, 2] = 3e150
    feats = pipeline.features(h, cfg)
    assert feats.shape == (8, nn.feature_dim(3, 3))
    for idx in ([0, 1, 2], [5, 3, 0], [7, 7, 4, 3], [3]):
        assert feats[idx].tobytes() == pipeline.features(h[idx], cfg).tobytes()
    tasks = pipeline.features(h.reshape(2, 4, 3, 3), cfg)
    assert tasks.tobytes() == feats.tobytes() and tasks.shape == (2, 4, feats.shape[1])


def test_predicted_ranges():
    rng = np.random.default_rng(2)
    cfg, params, h = setup(rng, b=10)
    feats = pipeline.encode_features(h, wmmse.mrt_beamformer(h, cfg))
    raw = (nn.mlp_forward(feats, w, b)[-1] for w, b in params.nets())
    u, w, mu = pipeline._heads(*raw, cfg)
    assert u.shape == (10, 3) and u.dtype == np.complex128
    assert np.all(w >= 1.0)
    assert np.all(mu >= pipeline.MU_FLOOR)


def test_softplus_far_negative_is_silent_and_exact():
    # exp(800) overflows: the head maps and the sigmoid their adjoints use
    # must still come out exact (w = 1, mu = MU_FLOOR, sigmoid 0) without a
    # RuntimeWarning.
    cfg = SystemConfig(n=3, k=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, w, mu = pipeline._heads(np.zeros((1, 6)), np.array([[-800.0, 0.0, 800.0]]),
                                   np.array([[-800.0]]), cfg)
        sig = pipeline._sigmoid(np.array([-800.0, 0.0, 800.0]))
    assert (w[0, 0], w[0, 2]) == (1.0, 801.0)
    assert mu[0] == pipeline.MU_FLOOR
    np.testing.assert_array_equal(sig, [0.0, 0.5, 1.0])


def test_loss_equals_objective_on_reconstruction():
    rng = np.random.default_rng(4)
    cfg, params, h = setup(rng)
    for variant in ("corrected", "verbatim"):
        tape = ad.Tape()
        leaves = nn.leaves_for(tape, params)
        loss, v_hat = pipeline.reconstruct_and_loss(
            tape, leaves, h, pipeline.features(h, cfg), cfg, variant=variant
        )
        per_sample = objective.sum_rate_loss(h, v_hat, variant=variant)
        assert float(loss.value) == pytest.approx(per_sample.mean(), abs=1e-12)


def test_loss_sum_reduction_is_batch_sum():
    rng = np.random.default_rng(5)
    cfg, params, h = setup(rng, b=4)
    tape = ad.Tape()
    leaves = nn.leaves_for(tape, params)
    feats = pipeline.features(h, cfg)
    loss, v_hat = pipeline.reconstruct_and_loss(tape, leaves, h, feats, cfg, reduction="sum")
    per_sample = objective.sum_rate_loss(h, v_hat)
    assert float(loss.value) == pytest.approx(per_sample.sum(), abs=1e-12)
    with pytest.raises(ValueError):
        pipeline.reconstruct_and_loss(tape, leaves, h, feats, cfg, reduction="median")


def test_loss_variants_differ_for_multiuser():
    rng = np.random.default_rng(6)
    cfg, params, h = setup(rng)
    vals = {}
    for variant in ("corrected", "verbatim"):
        tape = ad.Tape()
        leaves = nn.leaves_for(tape, params)
        loss, _ = pipeline.reconstruct_and_loss(tape, leaves, h, pipeline.features(h, cfg), cfg,
                                                variant=variant)
        vals[variant] = float(loss.value)
    assert vals["corrected"] != vals["verbatim"]


def test_forward_twin_matches_tape_reconstruction():
    # The tape and the twin run the same float operations, so their
    # beamformers agree to the bit: for a 2-D batch, and for each task of a
    # task-stacked batch whose tasks hold distinct parameters.
    rng = np.random.default_rng(7)
    cfg, params, h = setup(rng, b=12)
    tape = ad.Tape()
    leaves = nn.leaves_for(tape, params)
    _, v_hat = pipeline.reconstruct_and_loss(tape, leaves, h, pipeline.features(h, cfg), cfg)
    np.testing.assert_array_equal(v_hat, pipeline.predict_beamformers(params, h, cfg))

    stack = [a * (1.0 + 0.1 * np.arange(3).reshape(3, 1, 1))
             for a in nn.stack_params(params, 3).leaves]
    h = h.reshape(3, 4, 3, 3)
    tape = ad.Tape()
    leaves = nn.leaves_for(tape, nn.PredictorParams(stack, params.sizes))
    _, v_hat = pipeline.reconstruct_and_loss(tape, leaves, h, pipeline.features(h, cfg), cfg)
    for t in range(3):
        task = nn.from_arrays([a[t] for a in stack], params.sizes)
        np.testing.assert_array_equal(v_hat[t], pipeline.predict_beamformers(task, h[t], cfg))


def test_twin_and_tape_share_the_singularity_policy():
    # K=1 < N=3 makes S rank one, and a u near 1e6 puts its trace about 1e12
    # times above the mu shift: every Cholesky factorization succeeds, but
    # the pivot rule of linalg.hpd_solve rejects the matrices on both paths.
    rng = np.random.default_rng(9)
    cfg, params, h = setup(rng, k=1)
    (_, u_biases), _, _ = params.nets()
    u_biases[-1][:] = 1e6
    with pytest.raises(SingularMatrixError):
        pipeline.predict_beamformers(params, h, cfg)
    tape = ad.Tape()
    leaves = nn.leaves_for(tape, params)
    with pytest.raises(SingularMatrixError):
        pipeline.reconstruct_and_loss(tape, leaves, h, pipeline.features(h, cfg), cfg)


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
    (u_weights, u_biases), _, _ = params.nets()
    u_weights[-1][:] = 0.0
    u_biases[-1][:] = 0.0  # remove the output bias: u == 0
    with pytest.raises(DegenerateInputError):
        pipeline.predict_beamformers(params, h, cfg)
    tape = ad.Tape()
    leaves = nn.leaves_for(tape, params)
    with pytest.raises(DegenerateInputError):
        pipeline.reconstruct_and_loss(tape, leaves, h, pipeline.features(h, cfg), cfg)


def test_empty_batch_rejected():
    rng = np.random.default_rng(11)
    cfg, params, _ = setup(rng)
    tape = ad.Tape()
    leaves = nn.leaves_for(tape, params)
    with pytest.raises(ValueError):
        empty = np.zeros((0, 3, 3), complex)
        pipeline.reconstruct_and_loss(tape, leaves, empty, pipeline.features(empty, cfg), cfg)


def test_full_pipeline_gradient_smoke():
    # End-to-end gradient through nets, solve, projection, and rate loss.
    rng = np.random.default_rng(12)
    cfg = SystemConfig(n=2, k=2, p=10.0)
    params = nn.init_predictor(rng, 2, 2, width=8)
    h = rand_batch(rng, 3, 2, 2)

    def f(vec):
        p = nn.unpack(vec, params.sizes)
        tape = ad.Tape()
        leaves = nn.leaves_for(tape, p)
        loss, _ = pipeline.reconstruct_and_loss(tape, leaves, h, pipeline.features(h, cfg), cfg)
        grads = ad.grad(tape, loss, leaves.leaves)
        return float(loss.value), np.concatenate([g.ravel() for g in grads])

    err, ok, _ = ad.finite_diff_check(
        f, nn.pack(params), h=1e-5, rel_tol=1e-4, coords=30, rng=np.random.default_rng(0)
    )
    assert ok, f"max relative error {err:.3e}"


def fd_check_nodes(loss_fn, shapes, x0, tasks, h):
    """Every-coordinate central-difference check, with step h, of
    loss_fn(*leaves) with respect to leaves of the given shapes. With tasks
    the per-task losses enter with distinct weights, so each task's adjoint
    must reach its own rows."""
    sizes = [int(np.prod(sh)) for sh in shapes]
    task_weights = np.array([1.0, -2.0, 0.5])

    def f(vec):
        parts = np.split(vec, np.cumsum(sizes)[:-1])
        tape = ad.Tape()
        leaves = [tape.leaf(p.reshape(sh)) for p, sh in zip(parts, shapes)]
        loss = loss_fn(tape, *leaves)
        if tasks:
            assert loss.shape == tasks
            loss = tape.record(loss.value * task_weights, (loss,),
                               lambda g: (g * task_weights,))
        grads = ad.grad(tape, loss, leaves)
        return float(loss.value.sum()), np.concatenate([g.ravel() for g in grads])

    # The nodes are smooth (no kinks), so no probe may be skipped.
    err, ok, skipped = ad.finite_diff_check(f, x0, h=h, rel_tol=1e-5, kink_tol=1.0)
    assert ok and skipped == 0, f"max relative error {err:.3e}"


def pack_complex(tape, a):
    """Test-local node X = a[:, 0] + i a[:, 1] of a real (b, 2, n, k) node;
    the adjoint stacks the real and imaginary parts of X's complex adjoint."""
    return tape.record(a.value[:, 0] + 1j * a.value[:, 1], (a,),
                       lambda g: (np.stack([g.real, g.imag], axis=1),), "pack_complex")


def head_case(variant, reduction, tasks):
    rng = np.random.default_rng(13)
    per_task, n, k = 4, 3, 3
    cfg = SystemConfig(n=n, k=k, p=20.0, alpha=(1.0, 0.5, 2.0))
    b = per_task * int(np.prod(tasks))
    h = rand_batch(rng, b, k, n)
    factor = -1.0 / (k * per_task) if reduction == "mean" else -1.0 / k
    raw_shapes = [(*tasks, per_task, 2 * k), (*tasks, per_task, k), (*tasks, per_task, 1)]
    return rng, cfg, h, factor, raw_shapes


@pytest.mark.parametrize("variant", ["corrected", "verbatim"])
@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("tasks", [(), (3,)])
def test_rate_loss_node_matches_fd(variant, reduction, tasks):
    # The closed-form adjoint of the node from the solved columns x and the
    # raw u and w net outputs to the reduced loss, against central
    # differences in every coordinate; x is complex, packed from a real leaf
    # of its real and imaginary parts.
    rng, cfg, h, factor, (u_shape, w_shape, _) = head_case(variant, reduction, tasks)
    b, k, n = h.shape
    rhs = np.transpose(h, (0, 2, 1)).copy()

    def loss_fn(tape, x_parts, u_raw, w_raw):
        u, w, _ = pipeline._heads(u_raw.value.reshape(b, -1), w_raw.value.reshape(b, -1),
                                  np.zeros((b, 1)), cfg)
        loss, _ = pipeline._rate_loss(tape, pack_complex(tape, x_parts), u_raw, w_raw,
                                      pipeline._sigmoid(w_raw.value), u, w, h, rhs, cfg,
                                      variant, factor, tasks)
        return loss

    shapes = [(b, 2, n, k), u_shape, w_shape]
    x0 = rng.standard_normal(sum(int(np.prod(sh)) for sh in shapes))
    # a wide step keeps rounding out of the differences
    fd_check_nodes(loss_fn, shapes, x0, tasks, h=1e-4)


@pytest.mark.parametrize("variant", ["corrected", "verbatim"])
@pytest.mark.parametrize("reduction", ["mean", "sum"])
@pytest.mark.parametrize("tasks", [(), (3,)])
def test_head_nodes_match_fd(variant, reduction, tasks):
    # The Re S, Im S and mu nodes, through the solve and the rate loss, from
    # the raw outputs of all three nets, against central differences in
    # every coordinate.
    rng, cfg, h, factor, shapes = head_case(variant, reduction, tasks)

    def loss_fn(tape, u_raw, w_raw, mu_raw):
        loss, _ = pipeline._head_and_loss(tape, u_raw, w_raw, mu_raw, h, cfg, variant,
                                          factor, tasks)
        return loss

    x0 = rng.standard_normal(sum(int(np.prod(sh)) for sh in shapes))
    # The solve makes the chain curved enough that the truncation error of
    # a 1e-4 step (which falls as h^2) reaches 3e-5 on a small gradient.
    fd_check_nodes(loss_fn, shapes, x0, tasks, h=1e-5)


def test_reference_shape_pass_records_at_most_40_nodes():
    # N = K = 3, width-64 nets, B = 40: exactly 26 nodes, namely 18 parameter
    # leaves, one node per net (each reads the feature matrix as an array),
    # Re S, Im S, mu, the solve and one rate-loss node after it.
    rng = np.random.default_rng(14)
    cfg, params, h = setup(rng, b=40, width=64)
    tape = ad.Tape()
    leaves = nn.leaves_for(tape, params)
    pipeline.reconstruct_and_loss(tape, leaves, h, pipeline.features(h, cfg), cfg)
    assert [node.op for node in tape.nodes] == (
        ["leaf"] * 18 + ["mlp"] * 3
        + ["s_re", "s_im", "mu", "csolve_hpd", "rate_loss"]
    )
