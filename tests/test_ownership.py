"""Array ownership: no training or streaming loop writes into its inputs.

The hot loops overwrite arrays in place (SGD into its own gradients, Adam
into its own state, the MLP node into its own matmul products). Oracle: after
each call, every array the caller passed in is byte-identical to a copy taken
before it, and a node's adjoint requested from ad.grad equals the adjoint its
consumer produced, computed on a separate tape.
"""

import numpy as np

from metabeam import autodiff as ad
from metabeam import memory, meta, nn
from metabeam.meta import MetaConfig
from metabeam.objective import SystemConfig


def rand_batch(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def setup(seed=0):
    rng = np.random.default_rng(seed)
    cfg = SystemConfig(n=2, k=2, p=10.0)
    meta_cfg = MetaConfig(width=8, inner_steps=2, adapt_steps=3, epochs=2,
                          n_support=4, n_query=4, n_tasks=3, batch_size=4)
    return rng, cfg, meta_cfg, nn.init_predictor(rng, 2, 2, width=8)


def snapshot(arrays):
    return [a.tobytes() for a in arrays]


def test_meta_train_keeps_init_and_dataset():
    rng, cfg, meta_cfg, params = setup()
    dataset = rand_batch(rng, 24, 2, 2)
    before, data_before = snapshot(params.leaves), dataset.tobytes()
    meta.meta_train(dataset, cfg, meta_cfg, seed=1, init=params)
    assert snapshot(params.leaves) == before
    assert dataset.tobytes() == data_before


def test_unsupervised_train_keeps_init_and_dataset():
    rng, cfg, meta_cfg, params = setup()
    dataset = rand_batch(rng, 16, 2, 2)
    before, data_before = snapshot(params.leaves), dataset.tobytes()
    trained, _ = meta.unsupervised_train(dataset, cfg, meta_cfg, seed=1, init=params)
    assert snapshot(params.leaves) == before
    assert dataset.tobytes() == data_before
    # the result owns its arrays: no views of the loop's packed vector
    assert all(a.base is None for a in trained.leaves)


def test_outer_update_keeps_params_and_tasks():
    # neither the parameters nor the support and query row stacks are written
    rng, cfg, meta_cfg, params = setup()
    support, query = rand_batch(rng, 3, 4, 2, 2), rand_batch(rng, 3, 4, 2, 2)
    before, data_before = snapshot(params.leaves), snapshot([support, query])
    new_params, state, _, _ = meta.outer_update(params, support, query, cfg, meta_cfg, None)
    meta.outer_update(new_params, support, query, cfg, meta_cfg, state)
    assert snapshot(params.leaves) == before
    assert snapshot([support, query]) == data_before


def test_adapt_stack_keeps_stack_and_batch():
    rng, cfg, meta_cfg, params = setup()
    before = snapshot(params.leaves)
    for stack, batch in [
        (params, rand_batch(rng, 4, 2, 2)),
        (nn.stack_params(params, 3), rand_batch(rng, 3, 4, 2, 2)),
    ]:
        stack_before, batch_before = snapshot(stack.leaves), batch.tobytes()
        adapted, _ = meta.adapt_stack(stack, batch, cfg, meta_cfg, 3)
        assert snapshot(stack.leaves) == stack_before
        assert batch.tobytes() == batch_before
        assert not any(np.shares_memory(a, b) for a in adapted.leaves for b in stack.leaves)
    assert snapshot(params.leaves) == before


def test_mml_test_loop_keeps_stream_and_init():
    # Slot batches are views of the stream, so the memory stores copies.
    rng, cfg, meta_cfg, params = setup()
    stream = rand_batch(rng, 5, 4, 2, 2)
    before, stream_before = snapshot(params.leaves), stream.tobytes()
    for capacity in (0, 4):
        _, _, mem = memory.mml_test_loop(params, stream, cfg, meta_cfg, capacity)
        assert stream.tobytes() == stream_before
        assert snapshot(params.leaves) == before
        assert not any(np.shares_memory(e.sample, stream) for e in mem.entries)


def test_grad_returns_mlp_output_adjoint_unmodified():
    # y1 feeds a test-local node y2 = y1 * c, so y1's adjoint is that node's
    # fresh g * c; the backward of y1's node must not mask it in place.
    rng = np.random.default_rng(5)
    sizes = [3, 6, 6, 4]
    leaves1 = nn.init_mlp(rng, sizes)
    c = rng.standard_normal((7, 4))
    x0 = rng.standard_normal((7, 3))

    def times_c(tape, a):
        return tape.record(a.value * c, (a,), lambda g: (g * c,), "times")

    tape = ad.Tape()
    w1 = [tape.leaf(w) for w in leaves1[::2]]
    b1 = [tape.leaf(b) for b in leaves1[1::2]]
    y1 = ad.mlp(tape, x0, w1, b1)
    y2 = times_c(tape, y1)
    g_y1, g_y2, *_ = ad.grad(tape, y2, [y1, y2, *w1])

    other = ad.Tape()
    y1_leaf = other.leaf(y1.value.copy())
    (want,) = ad.grad(other, times_c(other, y1_leaf), [y1_leaf])
    np.testing.assert_array_equal(g_y1, want)
    np.testing.assert_array_equal(g_y2, np.ones_like(y2.value))
    assert np.any(want < 0.0) and np.any(want > 0.0)  # not a trivially masked adjoint
