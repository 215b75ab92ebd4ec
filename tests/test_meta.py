"""Training loops: test-time adaptation, the meta step, and both trainers.

Oracles:
- adapt_on_test with adapt_steps=1 must equal theta - a * g with g the
  independently recomputed summed-loss gradient (plain SGD, no momentum, no
  normalization).
- outer_update over a single task with inner_lr = 0 degenerates to one Adam
  step on the summed query loss at the unadapted parameters.
- the task-grouped outer_update equals, bit for bit, a loop that adapts and
  differentiates one task at a time (adapt_on_test + _loss_and_grad).
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from metabeam import autodiff as ad
from metabeam import channels, meta, nn, pipeline, wmmse
from metabeam.meta import MetaConfig
from metabeam.objective import SystemConfig


def rand_batch(rng, b, k, n):
    return (rng.standard_normal((b, k, n)) + 1j * rng.standard_normal((b, k, n))) / np.sqrt(2.0)


def small_setup(seed=0, b=8):
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(n=2, k=2, p=10.0)
    meta_cfg = MetaConfig(width=8, inner_steps=1, adapt_steps=3, epochs=3,
                          n_support=4, n_query=4, n_tasks=3, batch_size=4)
    params = nn.init_predictor(rng, 2, 2, width=8)
    batch = rand_batch(rng, b, 2, 2)
    return cfg, meta_cfg, params, batch


def summed_loss_grad(params, batch, cfg, meta_cfg):
    tape = ad.Tape()
    leaves = nn.leaves_for(tape, params)
    loss, _ = pipeline.reconstruct_and_loss(
        tape, leaves, batch, pipeline.features(batch, cfg), cfg,
        variant=meta_cfg.loss_variant, reduction="sum"
    )
    grads = ad.grad(tape, loss, leaves.leaves)
    return float(loss.value), np.concatenate([g.ravel() for g in grads])


def test_inner_adapt_zero_rate_is_identity():
    cfg, meta_cfg, params, batch = small_setup()
    frozen = dataclasses.replace(meta_cfg, inner_lr=0.0, adapt_steps=3)
    out = meta.adapt_on_test(params, batch, cfg, frozen)
    np.testing.assert_array_equal(nn.pack(out), nn.pack(params))


def test_inner_adapt_single_step_formula():
    cfg, meta_cfg, params, batch = small_setup()
    _, g = summed_loss_grad(params, batch, cfg, meta_cfg)
    one_step = dataclasses.replace(meta_cfg, adapt_steps=1)
    out = meta.adapt_on_test(params, batch, cfg, one_step)
    np.testing.assert_allclose(nn.pack(out), nn.pack(params) - meta_cfg.inner_lr * g, rtol=1e-14)


def test_inner_adapt_does_not_mutate_input():
    cfg, meta_cfg, params, batch = small_setup()
    before = nn.pack(params).copy()
    meta.adapt_on_test(params, batch, cfg, dataclasses.replace(meta_cfg, adapt_steps=2))
    np.testing.assert_array_equal(nn.pack(params), before)


def test_inner_adapt_descends_on_support():
    # A gradient step at a=0.01 should reduce the adapted batch's loss in the
    # vast majority of random instances.
    wins = 0
    for trial in range(40):
        cfg, meta_cfg, params, batch = small_setup(seed=trial)
        before = float(np.mean(pipeline.per_sample_losses(params, batch, cfg)))
        one_step = dataclasses.replace(meta_cfg, adapt_steps=1)
        adapted = meta.adapt_on_test(params, batch, cfg, one_step)
        after = float(np.mean(pipeline.per_sample_losses(adapted, batch, cfg)))
        wins += after < before
    assert wins >= 38, f"descent in only {wins}/40 trials"


def test_outer_update_frozen_inner_is_plain_adam():
    cfg, meta_cfg, params, _ = small_setup()
    rng = np.random.default_rng(1)
    task = channels.Task(support=rand_batch(rng, 4, 2, 2), query=rand_batch(rng, 4, 2, 2))
    frozen = dataclasses.replace(meta_cfg, inner_lr=0.0)
    new_params, state, _, q_loss = meta.outer_update(params, [task], cfg, frozen, None)
    _, g = summed_loss_grad(params, task.query, cfg, frozen)
    expected, _ = nn.adam_step(nn.pack(params), g, nn.AdamState.init(g.size), frozen.outer_lr)
    np.testing.assert_allclose(nn.pack(new_params), expected, rtol=1e-12)
    assert state.t == 1
    assert q_loss == pytest.approx(summed_loss_grad(params, task.query, cfg, frozen)[0] / 4)


def test_outer_update_gradient_sums_over_tasks():
    # With inner_lr = 0 the meta gradient is the sum of per-task query
    # gradients, so duplicating a task must equal doubling its gradient.
    cfg, meta_cfg, params, _ = small_setup()
    rng = np.random.default_rng(2)
    task = channels.Task(support=rand_batch(rng, 4, 2, 2), query=rand_batch(rng, 4, 2, 2))
    frozen = dataclasses.replace(meta_cfg, inner_lr=0.0)
    twice, _, _, _ = meta.outer_update(params, [task, task], cfg, frozen, None)
    _, g = summed_loss_grad(params, task.query, cfg, frozen)
    expected, _ = nn.adam_step(nn.pack(params), 2.0 * g, nn.AdamState.init(g.size), frozen.outer_lr)
    np.testing.assert_allclose(nn.pack(twice), expected, rtol=1e-12)


def reference_outer_update(params, tasks, cfg, meta_cfg, adam_state):
    """One task at a time: adapt, query gradient, sum in task order, Adam."""
    vec = nn.pack(params)
    total_g = np.zeros_like(vec)
    support_losses, query_losses = [], []
    for task in tasks:
        s_loss, _ = meta._loss_and_grad(params, task.support,
                                        pipeline.features(task.support, cfg), cfg,
                                        meta_cfg, "sum")
        support_losses.append(s_loss / len(task.support))
        adapted = meta.adapt_on_test(
            params, task.support, cfg,
            dataclasses.replace(meta_cfg, adapt_steps=meta_cfg.inner_steps),
        )
        q_loss, grads = meta._loss_and_grad(adapted, task.query,
                                            pipeline.features(task.query, cfg), cfg,
                                            meta_cfg, "sum")
        total_g += np.concatenate([g.ravel() for g in grads])
        query_losses.append(q_loss / len(task.query))
    state = adam_state or nn.AdamState.init(vec.size)
    new_vec, state = nn.adam_step(vec, total_g, state, meta_cfg.outer_lr)
    return (nn.unpack(new_vec, params.sizes), state,
            float(np.mean(support_losses)), float(np.mean(query_losses)))


@pytest.mark.parametrize(
    "n_tasks, overrides, group_samples",
    [
        (1, {}, None),
        (3, {"inner_steps": 2}, None),
        (3, {"loss_variant": "verbatim"}, None),
        (5, {"inner_steps": 2}, 8),  # groups of 2, 2 and 1 tasks
        (3, {"inner_steps": 0}, None),  # the support loss needs its own pass
    ],
)
def test_grouped_outer_update_matches_per_task_loop(
    monkeypatch, n_tasks, overrides, group_samples
):
    cfg, meta_cfg, params, _ = small_setup()
    meta_cfg = dataclasses.replace(meta_cfg, **overrides)
    if group_samples is not None:
        monkeypatch.setattr(meta, "TASK_GROUP_SAMPLES", group_samples)
    rng = np.random.default_rng(3)
    got_params, got_state = params, None
    want_params, want_state = params, None
    for _ in range(2):  # the second step starts from a nonzero Adam state
        tasks = [
            channels.Task(support=rand_batch(rng, 4, 2, 2), query=rand_batch(rng, 4, 2, 2))
            for _ in range(n_tasks)
        ]
        got_params, got_state, got_s, got_q = meta.outer_update(
            got_params, tasks, cfg, meta_cfg, got_state
        )
        want_params, want_state, want_s, want_q = reference_outer_update(
            want_params, tasks, cfg, meta_cfg, want_state
        )
        np.testing.assert_array_equal(nn.pack(got_params), nn.pack(want_params))
        np.testing.assert_array_equal(got_state.m, want_state.m)
        np.testing.assert_array_equal(got_state.v, want_state.v)
        assert got_state.t == want_state.t
        assert got_q == want_q
        assert got_s == want_s


def test_loss_and_grad_frees_its_tape_without_gc(monkeypatch):
    # No reference cycle keeps a tape alive: with the cycle collector off,
    # every tape made by a pass is gone when the pass returns.
    cfg, meta_cfg, params, batch = small_setup()
    tapes = []
    leaves_for = nn.leaves_for

    def spy(tape, *args):
        tapes.append(weakref.ref(tape))
        return leaves_for(tape, *args)

    monkeypatch.setattr(nn, "leaves_for", spy)
    stack = nn.stack_params(params, 2)
    gc.disable()
    try:
        tasks = batch.reshape(2, 4, 2, 2)
        meta._loss_and_grad(params, batch, pipeline.features(batch, cfg), cfg, meta_cfg,
                            "sum")
        meta._loss_and_grad(stack, tasks, pipeline.features(tasks, cfg), cfg, meta_cfg,
                            "sum")
        assert len(tapes) == 2
        assert all(ref() is None for ref in tapes)
    finally:
        gc.enable()


def test_meta_train_zero_epochs_returns_init():
    cfg, meta_cfg, params, batch = small_setup()
    idle = dataclasses.replace(meta_cfg, epochs=0)
    out, log = meta.meta_train(batch, cfg, idle, seed=3, init=params)
    np.testing.assert_array_equal(nn.pack(out), nn.pack(params))
    assert log.epochs == []


def test_meta_train_deterministic():
    cfg, meta_cfg, params, batch = small_setup(b=24)
    a, log_a = meta.meta_train(batch, cfg, meta_cfg, seed=5, init=params)
    b, log_b = meta.meta_train(batch, cfg, meta_cfg, seed=5, init=params)
    np.testing.assert_array_equal(nn.pack(a), nn.pack(b))
    assert log_a.query_loss == log_b.query_loss
    c, _ = meta.meta_train(batch, cfg, meta_cfg, seed=6, init=params)
    assert np.any(nn.pack(c) != nn.pack(a))


def test_meta_train_improves_query_loss():
    rng = np.random.default_rng(7)
    cfg = SystemConfig(n=2, k=2, p=10.0)
    meta_cfg = MetaConfig(width=8, epochs=30, n_support=8, n_query=8, n_tasks=6)
    dataset = rand_batch(rng, 64, 2, 2)
    params = nn.init_predictor(rng, 2, 2, width=8)
    _, log = meta.meta_train(dataset, cfg, meta_cfg, seed=8, init=params)
    first = np.mean(log.query_loss[:5])
    last = np.mean(log.query_loss[-5:])
    assert last < first, f"query loss did not trend down: {first:.4f} -> {last:.4f}"


def test_unsupervised_train_deterministic_and_improves():
    rng = np.random.default_rng(9)
    cfg = SystemConfig(n=2, k=2, p=10.0)
    meta_cfg = MetaConfig(width=8, epochs=30, batch_size=16)
    dataset = rand_batch(rng, 64, 2, 2)
    params = nn.init_predictor(rng, 2, 2, width=8)
    a, log_a = meta.unsupervised_train(dataset, cfg, meta_cfg, seed=10, init=params)
    b, _ = meta.unsupervised_train(dataset, cfg, meta_cfg, seed=10, init=params)
    np.testing.assert_array_equal(nn.pack(a), nn.pack(b))
    assert np.mean(log_a.support_loss[-5:]) < np.mean(log_a.support_loss[:5])


def test_each_loop_featurizes_its_batch_once(monkeypatch):
    # The features depend on the batch alone: adapt_on_test and a T-stacked
    # adapt_stack compute them once for all their steps, and
    # unsupervised_train once for its whole dataset, not once per pass.
    cfg, meta_cfg, params, batch = small_setup()
    real, calls = wmmse.mrt_beamformer, []

    def spy(h, cfg):
        calls.append(h.shape)
        return real(h, cfg)

    monkeypatch.setattr(wmmse, "mrt_beamformer", spy)
    meta.adapt_on_test(params, batch, cfg, meta_cfg)
    assert calls == [batch.shape]
    calls.clear()
    tasks = batch.reshape(2, 4, 2, 2)
    meta.adapt_stack(nn.stack_params(params, 2), tasks, cfg, meta_cfg, 3)
    assert calls == [tasks.shape]
    calls.clear()
    meta.unsupervised_train(batch, cfg, dataclasses.replace(meta_cfg, batch_size=2),
                            seed=0, init=params)
    assert calls == [batch.shape]
    # A loop that takes no step featurizes nothing: adapt_on_test none, and
    # outer_update only its support-loss and query passes.
    calls.clear()
    meta.adapt_on_test(params, batch, cfg, dataclasses.replace(meta_cfg, adapt_steps=0))
    assert calls == []
    tasks = [channels.task_from_dataset(np.random.default_rng(t), batch, 2, 2)
             for t in range(3)]
    meta.outer_update(params, tasks, cfg, dataclasses.replace(meta_cfg, inner_steps=0), None)
    assert calls == [(3, 2, 2, 2), (3, 2, 2, 2)]


def test_unsupervised_single_sample_overfit():
    # 300 Adam steps on one fixed sample should drive the predicted rate to
    # within 10% of the WMMSE rate on that same sample.
    from metabeam import objective, wmmse

    rng = np.random.default_rng(11)
    cfg = SystemConfig(n=2, k=2, p=10.0)
    meta_cfg = MetaConfig(width=16, epochs=300, batch_size=1, outer_lr=0.01)
    sample = rand_batch(rng, 1, 2, 2)
    params = nn.init_predictor(rng, 2, 2, width=16)
    trained, _ = meta.unsupervised_train(sample, cfg, meta_cfg, seed=12, init=params)
    predicted = float(pipeline.evaluate_wsr(trained, sample, cfg)[0])
    solved = objective.wsr(sample[0], wmmse.wmmse_solve(sample[0], cfg).v, cfg)
    assert predicted > 0.9 * solved, f"overfit rate {predicted:.3f} vs wmmse {solved:.3f}"


def test_train_log_records_wall_time():
    cfg, meta_cfg, params, batch = small_setup(b=16)
    _, log = meta.meta_train(batch, cfg, meta_cfg, seed=13, init=params)
    assert len(log.wall_time) == meta_cfg.epochs
    assert all(b >= a for a, b in zip(log.wall_time, log.wall_time[1:]))
