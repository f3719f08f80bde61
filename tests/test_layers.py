"""Gradient checks through the parameterized blocks."""
import numpy as np

from cdpm import ops
from cdpm.layers import ChannelAttention, Conv, Dense, SpatialChannelAttention, init_weights
from gradcheck import check_grad

RNG = np.random.default_rng(41)


def drawn(block):
    """The block with its weights drawn by the network's init policy."""
    init_weights(block, 41)
    return block


def block_scalar(block, x, forward):
    """Deterministic scalar readout used to exercise forward passes."""
    out, _ = forward(x)
    return float((out * np.cos(np.arange(out.size)).reshape(out.shape)).sum())


def check_block(block, x, forward, backward, tol=1e-6):
    """FD check of input grad and every parameter grad of a block."""
    out, ctx = forward(x)
    weights = np.cos(np.arange(out.size)).reshape(out.shape)
    for p in block.parameters():
        p.zero_grad()
    gx = backward(ctx, weights)
    check_grad(lambda v: block_scalar(block, v, forward), x.copy(), gx, tol)
    for p in block.parameters():
        analytic = p.grad.copy()

        def f(v, p=p):
            old = p.value.copy()
            p.value[...] = v
            try:
                return block_scalar(block, x, forward)
            finally:
                p.value[...] = old

        check_grad(f, p.value.copy(), analytic, tol)


def test_dense_gradients():
    for act in ("none", "relu"):
        d = drawn(Dense(f"d_{act}", 5, 4, act))
        x = RNG.standard_normal((3, 5)) + 0.3
        check_block(d, x, d.forward, d.backward)


def test_dense_grad_accumulates():
    d = drawn(Dense("acc", 3, 2))
    x = RNG.standard_normal((4, 3))
    _, ctx = d.forward(x)
    d.backward(ctx, np.ones((4, 2)))
    once = d.w.grad.copy()
    _, ctx = d.forward(x)
    d.backward(ctx, np.ones((4, 2)))
    np.testing.assert_allclose(d.w.grad, 2 * once)


def test_conv_block_gradients():
    for stride in (1, 2):
        c = drawn(Conv("c", 3, 2, 3, stride=stride, padding=1, activation="relu"))
        x = RNG.standard_normal((2, 6, 4, 2)) + 0.2
        check_block(c, x, c.forward, c.backward)


def test_conv_block_gradients_across_image_blocks(monkeypatch):
    # two images per block, so a batch of 5 ends in a one-image remainder
    monkeypatch.setattr(ops, "BLOCK_BYTES", 2 * 8 * 3 * 2 * 9 * 2)
    for stride in (1, 2):
        c = drawn(Conv("c", 3, 2, 3, stride=stride, padding=1, activation="relu"))
        x = RNG.standard_normal((5, 6, 4, 2)) + 0.2
        check_block(c, x, c.forward, c.backward)


def test_channel_attention_shapes_and_gradients():
    attn = drawn(ChannelAttention("ca", 8, reduction=4))
    x = RNG.standard_normal((3, 5, 8))
    out, _ = attn.forward(x)
    assert out.shape == x.shape
    check_block(attn, x, attn.forward, attn.backward)


def test_channel_attention_gate_bounds():
    attn = drawn(ChannelAttention("cb", 16, reduction=16))
    x = RNG.standard_normal((4, 16)) * 3
    out, (x_, _, _, gate) = attn.forward(x)
    assert np.all(gate > 0) and np.all(gate < 1)
    np.testing.assert_allclose(out, x * gate)


def test_spatial_channel_attention_mask_and_gradients():
    sca = drawn(SpatialChannelAttention("sca", 6, reduction=2))
    x = RNG.standard_normal((2, 4, 8, 6))
    out, ctx = sca.forward(x)
    mask = ctx[-1]
    assert mask.shape == (2, 4, 8, 1)
    assert np.all(mask > 0) and np.all(mask < 1)
    np.testing.assert_allclose(out, x * mask)
    check_block(sca, x, sca.forward, sca.backward, tol=5e-6)


def test_sca_zero_fusion_gives_half_mask():
    sca = drawn(SpatialChannelAttention("z", 6, reduction=2))
    sca.fuse.w.value[...] = 0.0
    sca.fuse.b.value[...] = 0.0
    x = RNG.standard_normal((1, 4, 8, 6))
    out, ctx = sca.forward(x)
    np.testing.assert_allclose(ctx[-1], 0.5)
    np.testing.assert_allclose(out, x / 2)


def test_sca_mask_monotone_in_fusion_logit():
    sca = drawn(SpatialChannelAttention("m", 6, reduction=2))
    x = np.abs(RNG.standard_normal((1, 4, 8, 6)))
    _, ctx = sca.forward(x)
    base = ctx[-1].copy()
    sca.fuse.b.value[...] += 0.5
    _, ctx2 = sca.forward(x)
    assert np.all(ctx2[-1] >= base)


def test_parameter_names_unique_within_blocks():
    sca = SpatialChannelAttention("u", 8, reduction=4)
    names = [p.name for p in sca.parameters()]
    assert len(names) == len(set(names))
