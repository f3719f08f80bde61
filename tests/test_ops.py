"""Operator forward values and analytic-vs-numerical gradient agreement."""
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import conv_reference as ref
from cdpm import alignment, ops
from gradcheck import check_grad, numerical_grad, rel_error

RNG = np.random.default_rng(7)


def test_fully_connected_identity_and_hand_value():
    x = np.array([1.5, -2.0])
    np.testing.assert_array_equal(ops.fully_connected(x, np.eye(2), np.zeros(2)), x)
    # [1,1] @ [[2],[3]] - 5 = 0
    out = ops.fully_connected(np.array([1.0, 1.0]), np.array([[2.0], [3.0]]), np.array([-5.0]))
    np.testing.assert_allclose(out, [0.0])


def test_fully_connected_gradients():
    x = RNG.standard_normal((6, 4))
    w = RNG.standard_normal((4, 3))
    b = RNG.standard_normal(3)
    g = RNG.standard_normal((6, 3))
    gx, gw, gb = ops.fully_connected_backward(x, w, g)
    check_grad(lambda v: float((ops.fully_connected(v, w, b) * g).sum()), x.copy(), gx)
    check_grad(lambda v: float((ops.fully_connected(x, v, b) * g).sum()), w.copy(), gw)
    check_grad(lambda v: float((ops.fully_connected(x, w, v) * g).sum()), b.copy(), gb)


def test_global_avg_pool_values():
    const = np.full((5, 3, 2), 3.5)
    np.testing.assert_allclose(ops.global_avg_pool(const), [3.5, 3.5])
    x = np.array([1.0, 3.0]).reshape(2, 1, 1)
    np.testing.assert_allclose(ops.global_avg_pool(x), [2.0])


def test_global_avg_pool_gradient_distributes_evenly():
    x = RNG.standard_normal((4, 3, 2))
    g = RNG.standard_normal(2)
    gx = ops.global_avg_pool_backward(x.shape, g)
    np.testing.assert_allclose(gx, np.broadcast_to(g / 12.0, x.shape))
    check_grad(lambda v: float((ops.global_avg_pool(v) * g).sum()), x.copy(), gx)


def test_cross_channel_avg_pool():
    x = np.zeros((2, 2, 2))
    x[0, 0] = [1.0, 3.0]
    out = ops.cross_channel_avg_pool(x)
    assert out.shape == (2, 2, 1)
    assert out[0, 0, 0] == 2.0
    const = np.full((3, 2, 5), -1.25)
    np.testing.assert_allclose(ops.cross_channel_avg_pool(const), np.full((3, 2, 1), -1.25))
    g = RNG.standard_normal((2, 2, 1))
    xr = RNG.standard_normal((2, 2, 2))
    gx = ops.cross_channel_avg_pool_backward(xr.shape, g)
    check_grad(lambda v: float((ops.cross_channel_avg_pool(v) * g).sum()), xr.copy(), gx)


@pytest.mark.parametrize(
    "fwd,bwd,cache_is_output",
    [
        (ops.sigmoid, ops.sigmoid_backward, True),
        (ops.tanh, ops.tanh_backward, True),
        (ops.relu, ops.relu_backward, False),
    ],
)
def test_activation_gradients(fwd, bwd, cache_is_output):
    x = RNG.standard_normal((4, 5)) * 2.0 + 0.1  # keep clear of the relu kink
    g = RNG.standard_normal((4, 5))
    cache = fwd(x) if cache_is_output else x
    gx = bwd(cache, g)
    check_grad(lambda v: float((fwd(v) * g).sum()), x.copy(), gx)


def test_activation_values_and_ranges():
    assert ops.sigmoid(np.array([0.0]))[0] == 0.5
    assert ops.tanh(np.array([0.0]))[0] == 0.0
    # below float64 saturation: tanh(~19) and sigmoid(~37) round to exactly 1
    x = RNG.uniform(-15, 15, 1000)
    s, t = ops.sigmoid(x), ops.tanh(x)
    assert np.all((s > 0) & (s < 1)) and np.all((t > -1) & (t < 1))
    assert np.all(np.isfinite(ops.sigmoid(np.array([1e4, -1e4]))))
    x, g = np.random.default_rng(5).standard_normal((2, 7, 5, 4, 3))
    assert np.array_equal(ops.relu_backward(x, g), g * (x > 0.0))


def _sigmoid_by_sign(x):
    """Sigmoid split by sign with boolean-mask gathers, the bit reference."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_gives_the_bits_of_the_split_by_sign_form():
    rng = np.random.default_rng(221)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e4, -1e4, 745.0, -745.0,
                        37.0, -37.0, 1e-300, -1e-300, 5e-324, -5e-324])
    for x in (special, rng.standard_normal(21504) * 8.0, rng.standard_normal((24, 21, 64)),
              rng.uniform(-800.0, 800.0, (7, 3))):
        got, want = ops.sigmoid(x), _sigmoid_by_sign(x)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.isnan(ops.sigmoid(special)[4])


def test_batch_norm_inference_values():
    x = RNG.standard_normal((3, 4))
    same = ops.batch_norm_inference(x, np.zeros(4), np.ones(4), np.ones(4), np.zeros(4))
    np.testing.assert_allclose(same, x / np.sqrt(1 + ops.BN_EPS))
    out = ops.batch_norm_inference(
        np.array([[2.0]]), np.array([2.0]), np.array([4.0]), np.array([3.0]), np.array([1.0])
    )
    np.testing.assert_allclose(out, [[1.0]], atol=1e-5)


def test_batch_norm_inference_gradients():
    x = RNG.standard_normal((5, 3))
    mean = RNG.standard_normal(3)
    var = RNG.random(3) + 0.5
    scale = RNG.standard_normal(3)
    shift = RNG.standard_normal(3)
    g = RNG.standard_normal((5, 3))
    gx, gscale, gshift = ops.batch_norm_inference_backward(x, mean, var, scale, g)
    f = lambda v: float((ops.batch_norm_inference(v, mean, var, scale, shift) * g).sum())
    check_grad(f, x.copy(), gx)
    fs = lambda v: float((ops.batch_norm_inference(x, mean, var, v, shift) * g).sum())
    check_grad(fs, scale.copy(), gscale)
    fb = lambda v: float((ops.batch_norm_inference(x, mean, var, scale, v) * g).sum())
    check_grad(fb, shift.copy(), gshift)


def test_bilinear_resize_identity_and_replication():
    x = RNG.standard_normal((4, 3, 2))
    np.testing.assert_array_equal(ops.bilinear_resize(x, 4, 3), x)
    single = np.array([[[2.5]]])
    np.testing.assert_allclose(ops.bilinear_resize(single, 2, 2), np.full((2, 2, 1), 2.5))


def scalar_resize_oracle(src: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Reference bilinear interpolation, one output pixel at a time."""
    h, w, c = src.shape
    out = np.zeros((out_h, out_w, c))
    for i in range(out_h):
        for j in range(out_w):
            si = min(max((i + 0.5) * h / out_h - 0.5, 0.0), h - 1)
            sj = min(max((j + 0.5) * w / out_w - 0.5, 0.0), w - 1)
            i0, j0 = int(np.floor(si)), int(np.floor(sj))
            i1, j1 = min(i0 + 1, h - 1), min(j0 + 1, w - 1)
            fi, fj = si - i0, sj - j0
            out[i, j] = (
                src[i0, j0] * (1 - fi) * (1 - fj)
                + src[i1, j0] * fi * (1 - fj)
                + src[i0, j1] * (1 - fi) * fj
                + src[i1, j1] * fi * fj
            )
    return out


def test_bilinear_resize_matches_scalar_oracle():
    x = np.array([0.0, 2.0]).reshape(2, 1, 1)
    got = ops.bilinear_resize(x, 4, 1)
    np.testing.assert_allclose(got, scalar_resize_oracle(x, 4, 1), atol=1e-12)
    np.testing.assert_allclose(got[:, 0, 0], [0.0, 0.5, 1.5, 2.0])
    for hw in [(2, 4), (5, 3), (7, 2)]:
        y = RNG.standard_normal((3, 4, 2))
        np.testing.assert_allclose(
            ops.bilinear_resize(y, *hw), scalar_resize_oracle(y, *hw), atol=1e-12
        )


def test_bilinear_resize_gradient():
    x = RNG.standard_normal((3, 4, 2))
    g = RNG.standard_normal((5, 6, 2))
    gx = ops.bilinear_resize_backward(x.shape, g)
    check_grad(lambda v: float((ops.bilinear_resize(v, 5, 6) * g).sum()), x.copy(), gx)


def test_bilinear_resize_cached_path_gives_the_bits_of_a_fresh_search():
    """At the attention block's shapes (a stride-2 3x3 conv's (ceil(h / 2),
    4) map resized back to each branch's (h, 8) window), the cached matrices
    and contraction path give the bits of `einsum(..., optimize=True)`."""
    rng = np.random.default_rng(233)
    for batch in (16, 24, 48):
        for h in sorted(set(alignment.branch_heights(6, alignment.GRANULARITIES))):
            s1 = rng.standard_normal((batch, (h + 1) // 2, 4, 1))
            g = rng.standard_normal((batch, h, 8, 1))
            mh = ops._resize_weights.__wrapped__(s1.shape[1], h)
            mw = ops._resize_weights.__wrapped__(4, 8)
            want = np.einsum("ip,...pqc,jq->...ijc", mh, s1, mw, optimize=True)
            want_g = np.einsum("ip,...ijc,jq->...pqc", mh, g, mw, optimize=True)
            for _ in range(2):  # the second call reads the caches
                assert np.array_equal(ops.bilinear_resize(s1, h, 8), want)
                assert np.array_equal(ops.bilinear_resize_backward(s1.shape, g), want_g)
    m = ops._resize_weights(3, 6)
    assert m is ops._resize_weights(3, 6) and not m.flags.writeable


def test_l2_normalize():
    x = RNG.standard_normal((4, 6))
    y = ops.l2_normalize(x)
    np.testing.assert_allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-9)
    g = RNG.standard_normal((4, 6))
    gx = ops.l2_normalize_backward(x, g)
    check_grad(lambda v: float((ops.l2_normalize(v) * g).sum()), x.copy(), gx)


@pytest.mark.parametrize("stride,pad", [(1, 1), (2, 1), (1, 0)])
def test_conv2d_gradients(stride, pad):
    x = RNG.standard_normal((2, 5, 4, 3))
    w = RNG.standard_normal((3, 3, 3, 2))
    b = RNG.standard_normal(2)
    out = ops.conv2d(x, w, b, stride=stride, padding=pad)
    g = RNG.standard_normal(out.shape)
    gx, gw, gb = ops.conv2d_backward(x, w, g, stride=stride, padding=pad)
    check_grad(lambda v: float((ops.conv2d(v, w, b, stride, pad) * g).sum()), x.copy(), gx)
    check_grad(lambda v: float((ops.conv2d(x, v, b, stride, pad) * g).sum()), w.copy(), gw)
    check_grad(lambda v: float((ops.conv2d(x, w, v, stride, pad) * g).sum()), b.copy(), gb)


def test_conv2d_matches_direct_loops():
    x = RNG.standard_normal((1, 4, 4, 2))
    w = RNG.standard_normal((3, 3, 2, 1))
    b = np.array([0.3])
    got = ops.conv2d(x, w, b, stride=2, padding=1)
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    want = np.zeros_like(got)
    for i in range(got.shape[1]):
        for j in range(got.shape[2]):
            patch = xp[0, 2 * i : 2 * i + 3, 2 * j : 2 * j + 3, :]
            want[0, i, j, 0] = (patch * w[:, :, :, 0]).sum() + b[0]
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_forward_determinism_and_finiteness():
    x = RNG.standard_normal((2, 6, 4, 3))
    w = RNG.standard_normal((3, 3, 3, 4))
    b = RNG.standard_normal(4)
    a = ops.conv2d(x, w, b, stride=2, padding=1)
    assert np.array_equal(a, ops.conv2d(x, w, b, stride=2, padding=1))
    assert np.all(np.isfinite(a))


#: output (H, W) per input channel count: a one-image block's GEMM still does
#: over 10^6 multiply-adds, as every backbone layer's does. Below that a BLAS
#: may take a small-matrix kernel whose rounding differs from the one it uses
#: for the whole batch; the attention convs, the only small ones, always run
#: in a single block (see the next test).
ORACLE_MAPS = {1: (48, 40), 3: (24, 32), 16: (12, 12)}
DEFAULT_BLOCK_BYTES = ops.BLOCK_BYTES


def _within_1e12(got, want):
    return np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _recording_gather(monkeypatch):
    """Make every block's patch gather append a copy of its patches to the
    returned list."""
    gathered, gather = [], ops._gather

    def recording(*args):
        patches = gather(*args)
        gathered.append(patches.copy())
        return patches

    monkeypatch.setattr(ops, "_gather", recording)
    return gathered


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("channels", [1, 3, 16])
@pytest.mark.parametrize("batch", [1, 5, 16, 25])
def test_blocked_conv2d_bit_identical_to_reference(monkeypatch, stride, channels, batch):
    """Every block size and worker count gives the pre-blocking outputs,
    patches and input gradients bit for bit. Kernel and bias gradients sum
    per-block partials: they equal the reference's bit for bit in one block,
    are within 1e-12 relative of them in several, and are bit-identical
    across worker counts at each block size; three workers take uneven
    shares of the blocks."""
    ho, wo = ORACLE_MAPS[channels]
    x = RNG.standard_normal((batch, stride * ho, stride * wo, channels))
    w = RNG.standard_normal((3, 3, channels, 64))
    b = RNG.standard_normal(64)
    want, want_cols = ref.conv2d(x, w, b, stride, 1, return_cols=True)
    g = RNG.standard_normal(want.shape)
    want_grads = {
        need: ref.conv2d_backward(x, w, g, stride, 1, want_cols, need)
        for need in (True, False)
    }
    gathered = _recording_gather(monkeypatch)
    patch_bytes = 8 * want.shape[1] * want.shape[2] * 9 * channels
    for images_per_block in (1, 3, None):
        block_bytes = DEFAULT_BLOCK_BYTES
        if images_per_block is not None:
            block_bytes = images_per_block * patch_bytes
        monkeypatch.setattr(ops, "BLOCK_BYTES", block_bytes)
        one_block = ops._block_images(batch, patch_bytes) == batch
        first = {}
        for workers in (1, 2, 3):
            monkeypatch.setattr(ops, "WORKERS", workers)
            gathered.clear()
            assert np.array_equal(ops.conv2d(x, w, b, stride, 1), want)
            for need in (True, False):
                got = ops.conv2d_backward(x, w, g, stride, 1, need_input_grad=need)
                (gx, gw, gb), (want_gx, want_gw, want_gb) = got, want_grads[need]
                assert (gx is None) == (want_gx is None)
                assert gx is None or np.array_equal(gx, want_gx)
                for gv, wv in ((gw, want_gw), (gb, want_gb)):
                    assert np.array_equal(gv, wv) if one_block else _within_1e12(gv, wv)
                for gv, fv in zip(got, first.setdefault(need, got)):
                    assert (gv is None and fv is None) or np.array_equal(gv, fv)
            if workers == 1:  # blocks in order: the forward's gathers, then each backward's
                for patches in np.split(np.concatenate(gathered), 3):
                    assert np.array_equal(patches, want_cols)


def _backbone_kernels(rng):
    widths = (3, 16, 32, 64, 64, 64)
    strides = (2, 2, 2, 2, 1)
    return [
        (rng.standard_normal((3, 3, c, d)) * np.sqrt(2.0 / (9 * c)),
         rng.standard_normal(d) * 0.1, s, 1)
        for c, d, s in zip(widths, widths[1:], strides)
    ]


#: conv2's patches per image, the backbone's largest layer's
BACKBONE_PATCH_BYTES = 8 * 96 * 32 * 9 * 16


def test_conv_relu_stack_bit_identical_to_reference(monkeypatch):
    """The depth-first stack at the backbone's geometry gives the
    layer-by-layer forward's feature map and, when kept, every layer's input
    and output bit for bit, at every worker count and block size."""
    x = RNG.random((5, 384, 128, 3))
    kernels = _backbone_kernels(RNG)
    want = ref.conv_relu_stack(x, kernels, 0.45, 0.225, keep=True)
    assert 0.0 < np.mean(want[-1] > 0.0) < 1.0  # relu neither idle nor all-zero
    for workers in (1, 2, 3):
        monkeypatch.setattr(ops, "WORKERS", workers)
        for images_per_block in (1, 3, 5):  # the last block short, one block
            monkeypatch.setattr(ops, "BLOCK_BYTES", images_per_block * BACKBONE_PATCH_BYTES)
            for keep in (True, False):
                got = ops.start_conv_relu_stack(x, kernels, 0.45, 0.225, keep)()
                expected = want if keep else want[-1:]
                assert len(got) == len(expected)
                for g, w in zip(got, expected):
                    assert np.array_equal(g, w)


def test_conv_relu_stack_backward_matches_reference(monkeypatch):
    """The depth-first backward at the backbone's geometry gives the
    layer-by-layer backward's kernel and bias gradients bit for bit in one
    block and within 1e-12 relative in several, bit-identical across worker
    counts at each block size."""
    x = RNG.random((5, 384, 128, 3))
    kernels = _backbone_kernels(RNG)
    acts = ref.conv_relu_stack(x, kernels, 0.45, 0.225, keep=True)
    g = RNG.standard_normal(acts[-1].shape)
    want = ref.conv_relu_stack_backward(acts, kernels, g)
    for images_per_block in (1, 3, 5):  # the last block short, one block
        monkeypatch.setattr(ops, "BLOCK_BYTES", images_per_block * BACKBONE_PATCH_BYTES)
        first = None
        for workers in (1, 2, 3):
            monkeypatch.setattr(ops, "WORKERS", workers)
            got = ops.conv_relu_stack_backward(acts, kernels, g)
            first = first or got
            assert len(got) == len(want) == len(first)
            for pair, want_pair, first_pair in zip(got, want, first):
                for gv, wv, fv in zip(pair, want_pair, first_pair):
                    assert np.array_equal(gv, fv)
                    assert np.array_equal(gv, wv) if images_per_block == 5 else _within_1e12(gv, wv)


def test_attention_conv_maps_fit_one_block():
    # spatial attention convs: one channel on at most 12x8 maps, 48-image batches
    assert ops._block_images(48, 8 * 12 * 8 * 9) == 48


def test_conv2d_backward_leaves_grad_out_untouched():
    x = RNG.standard_normal((3, 6, 5, 2))
    w = RNG.standard_normal((3, 3, 2, 3))
    out = ops.conv2d(x, w, np.zeros(3), 2, 1)
    g = RNG.standard_normal(out.shape)
    before = g.copy()
    ops.conv2d_backward(x, w, g, 2, 1)
    ops.relu_backward(out, g)
    assert np.array_equal(g, before)


def test_blocks_reraise_only_after_every_task_has_ended(monkeypatch):
    """The worker that takes block 3 fails at once; the other still takes
    every block left before the exception reaches the caller."""
    monkeypatch.setattr(ops, "WORKERS", 2)
    done = []

    def work(starts):
        for i in starts:
            if i == 3:
                raise ops.ShapeError("block 3")
            time.sleep(0.02)
            done.append(i)

    with pytest.raises(ops.ShapeError, match="block 3"):
        ops._run_blocks(work, 6, 1)()
    assert sorted(done) == [0, 1, 2, 4, 5]


def test_blocks_reraise_the_first_exception_in_task_order(monkeypatch):
    """Both workers fail; the first worker's exception is raised although
    the second's comes sooner."""
    monkeypatch.setattr(ops, "WORKERS", 2)
    indices = iter(range(2))

    def work(starts, index):
        for _ in starts:
            if index == 0:
                time.sleep(0.05)
                raise KeyError("first task")
            raise ValueError("second task")

    with pytest.raises(KeyError, match="first task"):
        ops._run_blocks(work, 2, 1, scratch=lambda: (next(indices),))()


def test_started_blocks_run_while_the_caller_goes_on(monkeypatch):
    """With two workers `_run_blocks` returns before any block is done; its
    handle joins every worker and returns the result. With one worker the
    blocks run before it returns."""
    release = threading.Event()
    done = []

    def work(starts):
        for i in starts:
            release.wait(10)
            done.append(i)

    monkeypatch.setattr(ops, "WORKERS", 2)
    wait = ops._run_blocks(work, 4, 1, result="out")
    assert done == []
    release.set()
    assert wait() == "out" and sorted(done) == [0, 1, 2, 3]
    monkeypatch.setattr(ops, "WORKERS", 1)
    done.clear()
    wait = ops._run_blocks(work, 3, 1, result="out")
    assert done == [0, 1, 2] and wait() == "out"


def test_no_thread_until_a_convolution_needs_one():
    """Importing cdpm and ranking descriptors start no thread, nor does a
    single-block convolution; only one with several blocks starts workers."""
    script = """
import sys
import threading
import numpy as np
import cdpm
from cdpm import evaluate, ops
rng = np.random.default_rng(0)
queries = {f"{i:04d}_c1_0000": rng.standard_normal(8) for i in (1, 2)}
gallery = {f"{i:04d}_c2_{j:04d}": rng.standard_normal(8) for i in (1, 2) for j in range(3)}
evaluate.evaluate_retrieval(queries, gallery, "single")
evaluate.evaluate_retrieval(queries, gallery, "multi")
print(threading.active_count(), ops._pool is None, "concurrent.futures" in sys.modules)
ops.WORKERS = 2
x, w = rng.standard_normal((3, 4, 4, 1)), rng.standard_normal((3, 3, 1, 2))
out = ops.conv2d(x, w, np.zeros(2))  # one image block: runs on this thread
ops.conv2d_backward(x, w, ops.relu_backward(out, out))
print(threading.active_count())
ops.BLOCK_BYTES = 1
ops.conv2d(x, w, np.zeros(2))
print(threading.active_count() > 1)
"""
    src = Path(ops.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["1", "True", "False", "1", "True"]
