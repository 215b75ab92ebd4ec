"""Predictor networks: init layout, packing, the layer loop, checkpoints."""

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
    u_sizes, w_sizes, mu_sizes = params.sizes
    assert u_sizes == [d, 16, 16, 4]  # 2K outputs (re and im of u)
    assert w_sizes == [d, 16, 16, 2]
    assert mu_sizes == [d, 16, 16, 1]


def test_init_bounds_follow_fan_sum():
    # Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out)): everything is
    # inside the bound and, with 24*16 draws, some mass lands beyond 0.9 a.
    rng = np.random.default_rng(1)
    params = nn.init_predictor(rng, n=3, k=2, width=16)
    for weights, _ in params.nets():
        for w in weights:
            bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
            assert np.abs(w).max() <= bound
            assert np.abs(w).max() > 0.9 * bound


def test_init_biases_zero_except_u_output():
    rng = np.random.default_rng(2)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    (_, u_biases), *others = params.nets()
    np.testing.assert_array_equal(u_biases[0], 0.0)
    np.testing.assert_array_equal(u_biases[1], 0.0)
    np.testing.assert_array_equal(u_biases[-1], nn.U_OUTPUT_BIAS)
    for _, biases in others:
        for b in biases:
            np.testing.assert_array_equal(b, 0.0)


def test_pack_unpack_roundtrip_bits():
    rng = np.random.default_rng(3)
    params = nn.init_predictor(rng, n=2, k=3, width=8)
    vec = nn.pack(params)
    back = nn.unpack(vec, params.sizes)
    for a, b in zip(params.leaves, back.leaves):
        np.testing.assert_array_equal(a, b)
    # and the reverse direction
    np.testing.assert_array_equal(nn.pack(back), vec)


def test_unpack_rejects_wrong_length():
    rng = np.random.default_rng(4)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    vec = nn.pack(params)
    with pytest.raises(ValueError):
        nn.unpack(vec[:-1], params.sizes)
    with pytest.raises(ValueError):
        nn.unpack(np.append(vec, 0.0), params.sizes)


def test_unpack_copies_do_not_alias():
    rng = np.random.default_rng(5)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    vec = nn.pack(params)
    back = nn.unpack(vec, params.sizes)
    vec[0] += 1.0
    assert back.leaves[0].ravel()[0] != vec[0]


def test_leaf_views_share_the_vector():
    # Views of consecutive pieces of vec, shaped like params.leaves: a
    # write into vec shows through them, and a wrong length raises.
    rng = np.random.default_rng(5)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    vec = nn.pack(params)
    views = nn.leaf_views(vec, params.sizes).leaves
    for v, a in zip(views, params.leaves, strict=True):
        np.testing.assert_array_equal(v, a)  # same shape and entries
        assert np.shares_memory(v, vec)
    vec[-1] += 1.0
    assert views[-1].ravel()[-1] == vec[-1]
    with pytest.raises(ValueError):
        nn.leaf_views(vec[:-1], params.sizes)


def test_from_arrays_takes_one_task_of_a_stack_as_a_copy():
    rng = np.random.default_rng(5)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    scales = np.arange(1.0, 4.0).reshape(3, 1, 1)
    stack = [scales * a for a in nn.stack_params(params, 3).leaves]  # task t is (t+1) params
    task = nn.from_arrays([a[2] for a in stack], params.sizes)
    for got, a, leaf in zip(task.leaves, stack, params.leaves):
        np.testing.assert_array_equal(got, 3.0 * leaf)
        assert not np.shares_memory(got, a)


def test_a_stack_slice_is_its_leaf():
    # A stack is its leaf behind a leading task axis: task t's slice of every
    # leaf, weight or (1, o) bias row, has the leaf's shape and memory, and
    # from_arrays of one task's slices packs to the leaves' bytes.
    params = nn.init_predictor(np.random.default_rng(6), n=2, k=3, width=8)
    stack = nn.stack_params(params, 3)
    for leaf, s in zip(params.leaves, stack.leaves, strict=True):
        for t in range(3):
            assert s[t].shape == leaf.shape
            assert np.shares_memory(s[t], leaf)
    task = nn.from_arrays([s[1] for s in stack.leaves], params.sizes)
    assert nn.pack(task).tobytes() == nn.pack(params).tobytes()


def test_mlp_forward_is_relu_network():
    # One hidden layer by hand: y = max(x W1 + b1, 0) W2 + b2.
    w1 = np.array([[1.0, -1.0], [2.0, 0.5]])
    b1 = np.array([0.0, -1.0])
    w2 = np.array([[1.0], [1.0]])
    b2 = np.array([0.25])
    x = np.array([[1.0, 1.0], [-1.0, 0.0]])
    hidden = np.maximum(x @ w1 + b1, 0.0)
    acts = nn.mlp_forward(x, [w1, w2], [b1, b2])
    assert len(acts) == 3 and acts[0] is x
    np.testing.assert_array_equal(acts[1], hidden)
    np.testing.assert_allclose(acts[2], hidden @ w2 + b2, rtol=1e-15)


def test_leaves_for_registers_every_array():
    rng = np.random.default_rng(7)
    params = nn.init_predictor(rng, n=2, k=2, width=8)
    tape = ad.Tape()
    tree = nn.leaves_for(tape, params)
    flat = tree.leaves
    assert len(flat) == sum(2 * len(weights) for weights, _ in params.nets())
    assert all(leaf.op == "leaf" for leaf in flat)
    _, (w_nodes, _), _ = tree.nets()
    _, (w_arrays, _), _ = params.nets()
    np.testing.assert_array_equal(w_nodes[0].value, w_arrays[0])


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(8)
    params = nn.init_predictor(rng, n=3, k=3, width=8)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(path, params)
    back = nn.load_checkpoint(path)
    for a, b in zip(params.leaves, back.leaves):
        np.testing.assert_array_equal(a, b)


def test_nets_of_different_depths_slice_and_roundtrip(tmp_path):
    # init_predictor builds nets of equal depth; here each net has its own,
    # so nets() and the loader must take every net's slice from its sizes.
    rng = np.random.default_rng(13)
    sizes = [[12, 5, 4], [12, 2], [12, 3, 3, 1]]
    leaves = [leaf for net in sizes for leaf in nn.init_mlp(rng, net, out_bias=0.5)]
    params = nn.PredictorParams(leaves, sizes)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(path, params)
    back = nn.load_checkpoint(path)
    assert back.sizes == sizes
    assert nn.pack(back).tobytes() == nn.pack(params).tobytes()
    for net, (weights, biases) in zip(sizes, back.nets(), strict=True):
        assert [w.shape for w in weights] == list(zip(net, net[1:]))
        assert [b.shape for b in biases] == [(1, o) for o in net[1:]]
    # the slices take every leaf once, in pack order
    sliced = [a for weights, biases in back.nets() for pair in zip(weights, biases) for a in pair]
    assert all(a is b for a, b in zip(sliced, back.leaves, strict=True))


def test_checkpoint_payload_is_the_packed_vector(tmp_path):
    # After the header (magic, net count, per net its size count and sizes)
    # the file holds pack(params) as little-endian float64, nothing else.
    params = nn.init_predictor(np.random.default_rng(12), n=2, k=3, width=8)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(path, params)
    header = 5 + 4 + sum(4 * (1 + len(sizes)) for sizes in params.sizes)
    assert path.read_bytes()[header:] == nn.pack(params).astype("<f8").tobytes()


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
    params.leaves[-1][0] = bad  # the mu net's output bias
    path = tmp_path / "net.ckpt"
    with pytest.raises(NumericalError):
        nn.save_checkpoint(path, params)
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_checkpoint_refuses_non_finite_parameters(tmp_path, bad):
    # save_checkpoint never writes a NaN or inf, so one in a file is damage:
    # the loader refuses it, naming the file, instead of handing it on.
    rng = np.random.default_rng(11)
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(path, nn.init_predictor(rng, n=2, k=2, width=8))
    path.write_bytes(path.read_bytes()[:-8] + np.array(bad, "<f8").tobytes())
    with pytest.raises(DataFormatError) as err:
        nn.load_checkpoint(path)
    assert str(path) in str(err.value)


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


# Damage to a checkpoint of N = K = 2, width 8, whose 69-byte header is the
# magic, the net count and per net its size count and four sizes.
@pytest.mark.parametrize("damage, what", [
    (lambda blob: b"XXXXX" + blob[5:], "bad magic"),
    (lambda blob: blob[:5] + bytes([9, 0, 0, 0]) + blob[9:], "expected 3 nets, header says 9"),
    (lambda blob: blob[:11], "truncated header at byte 9"),
    (lambda blob: blob[:69], "truncated payload at byte 69"),
    (lambda blob: blob + b"\x00", "1 trailing bytes after payload"),
], ids=["magic", "net-count", "header", "payload", "trailing"])
def test_every_checkpoint_refusal_names_the_file(tmp_path, damage, what):
    path = tmp_path / "net.ckpt"
    nn.save_checkpoint(path, nn.init_predictor(np.random.default_rng(10), n=2, k=2, width=8))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(DataFormatError) as err:
        nn.load_checkpoint(path)
    assert what in str(err.value)
    assert str(path) in str(err.value)


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
