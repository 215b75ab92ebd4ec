"""Predictor networks: init layout, packing, forward twins, checkpoints."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from metabeam import autodiff as ad
from metabeam import nn
from metabeam.errors import DataFormatError, NumericalError


def test_init_predictor_shapes_and_heads():
    rng = np.random.default_rng(0)
    params = nn.init_predictor(rng, n=3, k=2, width=16)
    d = nn.feature_dim(3, 2)
    assert d == 4 * 3 * 2
    assert params.u_net.sizes == [d, 16, 16, 4]  # 2K outputs (re and im of u)
    assert params.w_net.sizes == [d, 16, 16, 2]
    assert params.mu_net.sizes == [d, 16, 16, 1]


def test_init_bounds_follow_fan_sum():
    # Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)): everything is
    # inside the bound and, with 24*16 draws, some mass lands beyond 0.9 a.
    rng = np.random.default_rng(1)
    params = nn.init_predictor(rng, n=3, k=2, width=16)
    for net in params.nets():
        for w in net.weights:
            bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.abs(w).max() <= bound
            assert np.abs(w).max() > 0.9 * bound


def test_init_biases_zero_except_u_output():
    rng = np.random.default_rng(2)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    np.testing.assert_array_equal(params.u_net.biases[0], 0.0)
    np.testing.assert_array_equal(params.u_net.biases[1], 0.0)
    np.testing.assert_array_equal(params.u_net.biases[-1], nn.U_OUTPUT_BIAS)
    for net in (params.w_net, params.mu_net):
        for b in net.biases:
            np.testing.assert_array_equal(b, 0.0)


def test_pack_unpack_roundtrip_bits():
    rng = np.random.default_rng(3)
    params = nn.init_predictor(rng, n=2, k=3, width=8)
    vec = nn.pack(params)
    back = nn.unpack(vec, params)
    for a, b in zip(params.arrays(), back.arrays()):
        np.testing.assert_array_equal(a, b)
    # and the reverse direction
    np.testing.assert_array_equal(nn.pack(back), vec)


def test_unpack_rejects_wrong_length():
    rng = np.random.default_rng(4)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    vec = nn.pack(params)
    with pytest.raises(ValueError):
        nn.unpack(vec[:-1], params)
    with pytest.raises(ValueError):
        nn.unpack(np.append(vec, 0.0), params)


def test_unpack_copies_do_not_alias():
    rng = np.random.default_rng(5)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    vec = nn.pack(params)
    back = nn.unpack(vec, params)
    vec[0] += 1.0
    assert back.u_net.weights[0].ravel()[0] != vec[0]


def test_from_arrays_takes_one_task_of_a_stack_as_a_copy():
    rng = np.random.default_rng(5)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    scales = np.arange(1.0, 4.0).reshape(3, 1, 1)
    stack = [scales * a for a in nn.stack_params(params, 3)]  # task t is (t+1) params
    task = nn.from_arrays([a[2] for a in stack], params)
    for got, a, leaf in zip(task.arrays(), stack, params.arrays()):
        np.testing.assert_array_equal(got, 3.0 * leaf)
        assert not np.shares_memory(got, a)


def test_mlp_forward_tape_matches_np_twin():
    rng = np.random.default_rng(6)
    params = nn.init_predictor(rng, n=3, k=3, width=16)
    x = rng.standard_normal((7, nn.feature_dim(3, 3)))
    for net in params.nets():
        tape = ad.Tape()
        tree, _ = nn.leaves_for(tape, nn.PredictorParams(net, net, net))
        out = nn.mlp_forward(tree.u_net, tape.const(x))
        np.testing.assert_allclose(out.value, nn.mlp_forward_np(net, x), atol=1e-12)


def test_mlp_forward_is_relu_network():
    # One hidden layer by hand: y = max(x W1 + b1, 0) W2 + b2.
    w1 = np.array([[1.0, -1.0], [2.0, 0.5]])
    b1 = np.array([0.0, -1.0])
    w2 = np.array([[1.0], [1.0]])
    b2 = np.array([0.25])
    net = nn.MlpParams(weights=[w1, w2], biases=[b1, b2])
    x = np.array([[1.0, 1.0], [-1.0, 0.0]])
    hidden = np.maximum(x @ w1 + b1, 0.0)
    np.testing.assert_allclose(nn.mlp_forward_np(net, x), hidden @ w2 + b2, rtol=1e-15)


def test_leaves_for_registers_every_array():
    rng = np.random.default_rng(7)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    tape = ad.Tape()
    tree, flat = nn.leaves_for(tape, params)
    assert len(flat) == sum(2 * len(net.weights) for net in params.nets())
    assert all(leaf.requires_grad for leaf in flat)
    np.testing.assert_array_equal(tree.w_net.weights[0].value, params.w_net.weights[0])


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    params = nn.init_predictor(rng, n=3, k=3, width=8)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(path, params)
    back = nn.load_checkpoint(path)
    for a, b in zip(params.arrays(), back.arrays()):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_file_is_stable(tmp_path):
    rng = np.random.default_rng(9)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    nn.save_checkpoint(p1, params)
    nn.save_checkpoint(p2, params)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_refuses_non_finite_parameters(tmp_path, bad):
    rng = np.random.default_rng(11)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    params.mu_net.biases[-1][0] = bad
    path = tmp_path / "net.ckpt"
    with pytest.raises(NumericalError):
        nn.save_checkpoint(path, params)
    assert not path.exists()


def test_checkpoint_corruption_detected(tmp_path):
    rng = np.random.default_rng(10)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(path, params)
    blob = path.read_bytes()

    bad_magic = tmp_path / "m.ckpt"
    bad_magic.write_bytes(b"XXXXX" + blob[5:])
    with pytest.raises(DataFormatError):
        nn.load_checkpoint(bad_magic)

    truncated = tmp_path / "t.ckpt"
    truncated.write_bytes(blob[:-16])
    with pytest.raises(DataFormatError):
        nn.load_checkpoint(truncated)

    padded = tmp_path / "p.ckpt"
    padded.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(DataFormatError):
        nn.load_checkpoint(padded)

    wrong_count = tmp_path / "c.ckpt"
    wrong_count.write_bytes(blob[:5] + bytes([9, 0, 0, 0]) + blob[9:])
    with pytest.raises(DataFormatError):
        nn.load_checkpoint(wrong_count)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_pack_length_matches_architecture(n, k):
    rng = np.random.default_rng(11)
    params = nn.init_predictor(rng, n, k, width=8)
    d = nn.feature_dim(n, k)
    expected = 0
    for out_dim in (2 * k, k, 1):
        sizes = [d, 8, 8, out_dim]
        expected += sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    assert nn.pack(params).size == expected
