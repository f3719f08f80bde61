"""Differentiable array operators: forward passes and analytic backward passes.

Every operator works on 64-bit float numpy arrays in row-major order. Spatial
tensors are laid out (height, width, channels), optionally with one leading
batch axis. Each `*_backward` function is the exact reverse-mode counterpart
of its forward and is validated against central finite differences in the
test suite.
"""
from __future__ import annotations

import os
import threading
from functools import partial

import numpy as np

BN_EPS = 1e-5

#: Target bytes of one block of a batch-blocked pass (a convolution's patch
#: matrix, a relu mask); a block holds at least one image.
BLOCK_BYTES = 2**22


def _core_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


#: Threads that run the image blocks of a batch-blocked pass side by side.
#: Each block is computed the same way on whichever thread takes it, so
#: results are bit-identical at any count.
WORKERS = _core_count()

_pool = None  # a ThreadPoolExecutor, made on first use, never at import


class ShapeError(ValueError):
    """Raised when operator inputs have incompatible shapes."""


def as_f64(x) -> np.ndarray:
    """Coerce input to a C-contiguous float64 array."""
    return np.ascontiguousarray(x, dtype=np.float64)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeError(msg)


def _block_images(batch: int, bytes_per_image: int) -> int:
    return max(1, min(batch, BLOCK_BYTES // bytes_per_image))


class _Starts:
    """The image-block starts of one pass; each goes to the first worker
    that asks for the next one."""

    def __init__(self, batch: int, step: int):
        self._starts = iter(range(0, batch, step))
        self._lock = threading.Lock()

    def __iter__(self):
        while True:
            with self._lock:
                i = next(self._starts, None)
            if i is None:
                return
            yield i


def _run_blocks(work, batch: int, step: int, *extra, scratch=tuple) -> None:
    """Run `work(starts, *scratch())` (unless `work` is None) on
    min(WORKERS, blocks) workers that share out the block starts of `batch`
    images in blocks of `step`, alongside the zero-argument tasks `extra`.

    `scratch` makes one worker's reused buffers. It is called here, on the
    calling thread, so the buffers come from that thread's allocator arena;
    made on the workers, they would each keep a heap of their own alive.

    With one worker or at most one block every task runs inline, in order.
    Else the tasks run on the pool, and every task has ended before the
    first exception (in task order) is re-raised, so no worker still writes
    into a buffer the caller returns or drops.
    """
    global _pool
    blocks = -(-batch // step)
    tasks = list(extra)
    if work is not None:
        starts = _Starts(batch, step)
        tasks += [partial(work, starts, *scratch()) for _ in range(min(WORKERS, blocks))]
    if WORKERS == 1 or blocks <= 1:
        for task in tasks:
            task()
        return
    if _pool is None:
        # imported here: importing it with this module shifted the allocator
        # state of processes that never convolve and slowed their retrieval
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="cdpm-ops")
    futures = [_pool.submit(task) for task in tasks]
    for future in futures:
        future.exception()  # waits for the task; raises nothing
    for future in futures:
        future.result()


# ---------------------------------------------------------------------------
# affine maps


def fully_connected(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map on the last axis: out[..., d] = sum_c x[..., c] * w[c, d] + b[d]."""
    _require(w.ndim == 2, f"fully_connected weights must be rank 2, got {w.shape}")
    _require(
        x.shape[-1] == w.shape[0],
        f"fully_connected input width {x.shape[-1]} != weight rows {w.shape[0]}",
    )
    _require(b.shape == (w.shape[1],), f"bias shape {b.shape} != ({w.shape[1]},)")
    return x @ w + b


def fully_connected_backward(
    x: np.ndarray, w: np.ndarray, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    gx = grad_out @ w.T
    flat_x = x.reshape(-1, x.shape[-1])
    flat_g = grad_out.reshape(-1, grad_out.shape[-1])
    gw = flat_x.T @ flat_g
    gb = flat_g.sum(axis=0)
    return gx, gw, gb


# ---------------------------------------------------------------------------
# pooling


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the two spatial axes: (..., H, W, C) -> (..., C)."""
    _require(x.ndim >= 3, f"global_avg_pool expects (...,H,W,C), got {x.shape}")
    return x.mean(axis=(-3, -2))


def global_avg_pool_backward(x_shape: tuple[int, ...], grad_out: np.ndarray) -> np.ndarray:
    h, w = x_shape[-3], x_shape[-2]
    gx = np.broadcast_to(
        grad_out[..., None, None, :] / (h * w), x_shape
    )
    return np.ascontiguousarray(gx)


def cross_channel_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over channels: (..., H, W, C) -> (..., H, W, 1)."""
    _require(x.ndim >= 3, f"cross_channel_avg_pool expects (...,H,W,C), got {x.shape}")
    return x.mean(axis=-1, keepdims=True)


def cross_channel_avg_pool_backward(
    x_shape: tuple[int, ...], grad_out: np.ndarray
) -> np.ndarray:
    c = x_shape[-1]
    return np.ascontiguousarray(np.broadcast_to(grad_out / c, x_shape))


# ---------------------------------------------------------------------------
# activations


def sigmoid(x: np.ndarray) -> np.ndarray:
    # Split by sign to avoid overflow in exp.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient given the forward output y = sigmoid(x)."""
    return grad_out * y * (1.0 - y)


def tanh(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * (1.0 - y * y)


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out * (x > 0), masked in leading-axis blocks so the boolean mask
    never exists at full size; grad_out is left untouched."""
    gx = np.empty(grad_out.shape)
    step = _block_images(len(gx), 8 * (gx[0].size or 1))

    def mask(starts):
        for i in starts:
            np.multiply(grad_out[i : i + step], x[i : i + step] > 0.0, out=gx[i : i + step])

    _run_blocks(mask, len(gx), step)
    return gx


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, with max subtraction for stability."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(y: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """Gradient given the forward output y = softmax(x)."""
    dot = (grad_out * y).sum(axis=-1, keepdims=True)
    return y * (grad_out - dot)


def l2_normalize(x: np.ndarray) -> np.ndarray:
    """Scale the last axis to unit Euclidean norm."""
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    _require(bool(np.all(norm > 0)), "l2_normalize requires nonzero vectors")
    return x / norm


def l2_normalize_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    y = x / norm
    dot = (grad_out * y).sum(axis=-1, keepdims=True)
    return (grad_out - y * dot) / norm


# ---------------------------------------------------------------------------
# normalization


def batch_norm_inference(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    scale: np.ndarray,
    shift: np.ndarray,
) -> np.ndarray:
    """Per-channel normalization with fixed statistics.

    out = (x - mean) / sqrt(var + eps) * scale + shift, applied over the
    last axis. Statistics are inputs, never fit here.
    """
    _require(bool(np.all(var >= 0)), "batch_norm_inference requires var >= 0")
    inv = 1.0 / np.sqrt(var + BN_EPS)
    return (x - mean) * inv * scale + shift


def batch_norm_inference_backward(
    x: np.ndarray,
    mean: np.ndarray,
    var: np.ndarray,
    scale: np.ndarray,
    grad_out: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. input, scale, and shift (statistics are constants)."""
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean) * inv
    gx = grad_out * scale * inv
    reduce_axes = tuple(range(grad_out.ndim - 1))
    gscale = (grad_out * xhat).sum(axis=reduce_axes)
    gshift = grad_out.sum(axis=reduce_axes)
    return gx, gscale, gshift


# ---------------------------------------------------------------------------
# bilinear resize


def _resize_weights(n_in: int, n_out: int) -> np.ndarray:
    """Interpolation matrix M (n_out, n_in) for half-pixel-centre bilinear resize.

    Source coordinate of output index i is (i + 0.5) * n_in / n_out - 0.5,
    clamped to [0, n_in - 1]. Equal sizes yield the identity matrix.
    """
    if n_in == n_out:
        return np.eye(n_in)
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = src - lo
    m = np.zeros((n_out, n_in))
    np.add.at(m, (np.arange(n_out), lo), 1.0 - frac)
    np.add.at(m, (np.arange(n_out), hi), frac)
    return m


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear interpolation of (..., H, W, C) to (..., out_h, out_w, C)."""
    _require(x.ndim >= 3, f"bilinear_resize expects (...,H,W,C), got {x.shape}")
    _require(out_h >= 1 and out_w >= 1, "target extents must be >= 1")
    h, w = x.shape[-3], x.shape[-2]
    if (h, w) == (out_h, out_w):
        return x.copy()
    mh = _resize_weights(h, out_h)
    mw = _resize_weights(w, out_w)
    return np.einsum("ip,...pqc,jq->...ijc", mh, x, mw, optimize=True)


def bilinear_resize_backward(
    x_shape: tuple[int, ...], grad_out: np.ndarray
) -> np.ndarray:
    h, w = x_shape[-3], x_shape[-2]
    out_h, out_w = grad_out.shape[-3], grad_out.shape[-2]
    if (h, w) == (out_h, out_w):
        return grad_out.copy()
    mh = _resize_weights(h, out_h)
    mw = _resize_weights(w, out_w)
    return np.einsum("ip,...ijc,jq->...pqc", mh, grad_out, mw, optimize=True)


# ---------------------------------------------------------------------------
# small-kernel convolution (backbone and spatial attention)
#
# im2col + GEMM (Chellapilla et al., 2006), run over the batch in blocks of
# whole images so that one block's padded input, patch matrix and padded input
# gradient stay cache-sized. Every GEMM row is one output pixel's dot product
# over the same depth, so a block's rows equal the whole batch's bit for bit
# whenever the BLAS runs both through the same kernel (it does at the
# backbone's sizes; tiny GEMMs may take a small-matrix kernel, which is why
# the tiny attention convs always run as a single block). Forward passes
# gather into a block-sized patch buffer; only the kernel gradient needs the
# whole-batch patch matrix, so only the backward builds it (`_im2col`).
#
# The image blocks run on one worker per core (`WORKERS`, `_run_blocks`):
# each worker pulls the next block start and reuses its own pad, patch and
# gradient buffers, and every block writes only its own slice of the result,
# so the bits do not depend on the core count. The backward runs the
# whole-batch kernel-gradient GEMM and the bias sum, each unsplit, beside the
# per-block input-gradient work. A multi-threaded BLAS
# (OPENBLAS_NUM_THREADS > 1) adds its threads on top of these workers.


def _strided_cols(xp, kh, kw, stride, ho, wo):
    sb, sh, sw, sc = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(xp.shape[0], ho, wo, kh, kw, xp.shape[3]),
        strides=(sb, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def _col2im(gcols, gxp, stride):
    b, ho, wo, kh, kw, c = gcols.shape
    for ki in range(kh):
        for kj in range(kw):
            gxp[
                :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride, :
            ] += gcols[:, :, :, ki, kj, :]


def _pad_buffer(x: np.ndarray, p: int, step: int) -> np.ndarray:
    h, wd, c = x.shape[1:]
    return np.zeros((step, h + 2 * p, wd + 2 * p, c))


def _padded_blocks(x: np.ndarray, p: int, starts, xp: np.ndarray):
    """Yield (first image, padded block) for each block start in `starts`,
    each block copied into the reused buffer `xp` (from `_pad_buffer`),
    whose zero border is never written."""
    bsz, h, wd = x.shape[:3]
    for i in starts:
        n = min(len(xp), bsz - i)
        xp[:n, p : p + h, p : p + wd] = x[i : i + n]
        yield i, xp[:n]


def _out_hw(x: np.ndarray, kh: int, kw: int, stride: int, p: int) -> tuple[int, int]:
    h, wd = x.shape[1:3]
    return (h + 2 * p - kh) // stride + 1, (wd + 2 * p - kw) // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> np.ndarray:
    """Whole-batch patch matrix (B*ho*wo, kh*kw*C) of `x`, gathered per image block."""
    bsz, c = len(x), x.shape[3]
    ho, wo = _out_hw(x, kh, kw, stride, padding)
    cols = np.empty((bsz, ho, wo, kh, kw, c))
    step = _block_images(bsz, 8 * cols[0].size)

    def gather(starts, pad):
        for i, xp in _padded_blocks(x, padding, starts, pad):
            cols[i : i + len(xp)] = _strided_cols(xp, kh, kw, stride, ho, wo)

    _run_blocks(gather, bsz, step, scratch=lambda: (_pad_buffer(x, padding, step),))
    return cols.reshape(bsz * ho * wo, kh * kw * c)


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int = 1,
    padding: int = 1,
) -> np.ndarray:
    """2-D convolution on (B, H, W, C) with kernel (kh, kw, C, D) and zero padding.

    Each worker gathers its image blocks' patches into one reused block-sized
    buffer; the whole-batch patch matrix is never built here.
    """
    _require(x.ndim == 4, f"conv2d expects (B,H,W,C), got {x.shape}")
    _require(w.ndim == 4, f"conv2d kernel must be rank 4, got {w.shape}")
    _require(
        x.shape[-1] == w.shape[2],
        f"conv2d channel mismatch: input {x.shape[-1]} vs kernel {w.shape[2]}",
    )
    kh, kw, c, d = w.shape
    bsz = len(x)
    ho, wo = _out_hw(x, kh, kw, stride, padding)
    rows, depth = ho * wo, kh * kw * c
    wmat = w.reshape(depth, d)
    step = _block_images(bsz, 8 * rows * depth)
    out = np.empty((bsz, ho, wo, d))

    def forward(starts, pad, cols):
        for i, xp in _padded_blocks(x, padding, starts, pad):
            n = len(xp)
            patches = cols[:n]
            patches[...] = _strided_cols(xp, kh, kw, stride, ho, wo)
            block_out = out[i : i + n].reshape(n * rows, d)
            np.matmul(patches.reshape(n * rows, depth), wmat, out=block_out)
            block_out += b

    _run_blocks(forward, bsz, step, scratch=lambda: (
        _pad_buffer(x, padding, step), np.empty((step, ho, wo, kh, kw, c))
    ))
    return out


def conv2d_backward(
    x: np.ndarray,
    w: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    padding: int = 1,
    need_input_grad: bool = True,
):
    """Gradients of conv2d w.r.t. input, kernel, and bias.

    The kernel gradient is one GEMM over the whole-batch patch matrix, built
    here by `_im2col` and dropped as soon as the GEMM returns; the bias
    gradient is one sum. Both run beside the input gradient, which is
    skipped (None) when the caller does not need it, else built per image
    block, scattering the block's patch gradients into a block-sized padded
    buffer.
    """
    kh, kw, c, d = w.shape
    p = padding
    bsz, ho, wo = grad_out.shape[:3]
    h, wd = x.shape[1:3]
    rows, depth = ho * wo, kh * kw * c
    flat_g = grad_out.reshape(bsz * rows, d)
    step = _block_images(bsz, 8 * rows * depth)
    # held only by this list, so the GEMM's task frees the matrix when it returns
    patches = [_im2col(x, kh, kw, stride, p)]
    wt = w.reshape(depth, d).T
    gx = np.empty(x.shape) if need_input_grad else None
    grads = {}

    def kernel_grad():
        grads["w"] = (patches.pop().T @ flat_g).reshape(kh, kw, c, d)

    def bias_grad():
        grads["b"] = flat_g.sum(axis=0)

    def input_grad(starts, gxp, gcols):
        for i in starts:
            n = min(step, bsz - i)
            acc, block = gxp[:n], gcols[: n * rows]
            np.matmul(flat_g[i * rows : (i + n) * rows], wt, out=block)
            acc[...] = 0.0
            _col2im(block.reshape(n, ho, wo, kh, kw, c), acc, stride)
            gx[i : i + n] = acc[:, p : p + h, p : p + wd]

    _run_blocks(input_grad if need_input_grad else None, bsz, step, kernel_grad, bias_grad,
                scratch=lambda: (np.empty((step, h + 2 * p, wd + 2 * p, c)),
                                 np.empty((step * rows, depth))))
    return gx, grads["w"], grads["b"]
