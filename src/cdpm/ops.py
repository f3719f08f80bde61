"""Differentiable array operators: forward passes and analytic backward passes.

Every operator works on 64-bit float numpy arrays in row-major order
(`start_conv_relu_stack` also reads integer pixels, given their scale). Spatial
tensors are laid out (height, width, channels), optionally with one leading
batch axis. Each `*_backward` function is the exact reverse-mode counterpart
of its forward and is validated against central finite differences in the
test suite.
"""
from __future__ import annotations

import os
import threading
from functools import lru_cache, partial

import numpy as np

BN_EPS = 1e-5

#: Target bytes of one block of a batch-blocked pass (a convolution's patch
#: matrix); a block holds at least one image.
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


def _run_blocks(work, batch: int, step: int, scratch=tuple, result=None):
    """Start `work(starts, *scratch())` on min(WORKERS, blocks) workers that
    share out the block starts of `batch` images in blocks of `step`, and
    return a wait handle: calling it joins every worker, re-raises the first
    exception (in worker order) and returns `result`.

    `scratch` makes one worker's reused buffers. It is called here, on the
    calling thread, so the buffers come from that thread's allocator arena;
    made on the workers, they would each keep a heap of their own alive.

    With one worker or at most one block the work runs inline, before this
    returns. Else the workers run on the pool, and the handle waits for
    every worker to end before it raises, so no worker still writes into a
    buffer the caller returns or drops. A synchronous caller calls the
    handle at once; one that overlaps other work with the pass must call it
    before it reads `result` or returns.
    """
    global _pool
    blocks = -(-batch // step)
    starts = _Starts(batch, step)
    tasks = [partial(work, starts, *scratch()) for _ in range(min(WORKERS, blocks))]
    if len(tasks) <= 1:
        for task in tasks:
            task()
        return lambda: result
    if _pool is None:
        # imported here: importing it with this module shifted the allocator
        # state of processes that never convolve and slowed their retrieval
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="cdpm-ops")
    return partial(_join, [_pool.submit(task) for task in tasks], result)


def _join(futures, result):
    for future in futures:
        future.exception()  # waits for the task; raises nothing
    for future in futures:
        future.result()
    return result


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
    # min(x, -x) is -x where x >= 0 and x elsewhere (a NaN keeps its sign), so
    # exp never overflows and the result is 1 / (1 + exp(-x)) where x >= 0,
    # exp(x) / (1 + exp(x)) elsewhere
    e = np.exp(np.minimum(x, -x))
    d = 1.0 + e
    out = np.divide(e, d)
    np.divide(1.0, d, out=out, where=x >= 0)
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
    return grad_out * (x > 0.0)


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


@lru_cache(maxsize=None)
def _resize_weights(n_in: int, n_out: int) -> np.ndarray:
    """Interpolation matrix M (n_out, n_in) for half-pixel-centre bilinear
    resize, made once per size pair and read-only.

    Source coordinate of output index i is (i + 0.5) * n_in / n_out - 0.5,
    clamped to [0, n_in - 1]. Equal sizes yield the identity matrix.
    """
    src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
    src = np.clip(src, 0.0, n_in - 1)
    lo = np.floor(src).astype(np.int64)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = src - lo
    m = np.zeros((n_out, n_in))
    np.add.at(m, (np.arange(n_out), lo), 1.0 - frac)
    np.add.at(m, (np.arange(n_out), hi), frac)
    m.flags.writeable = False
    return m


@lru_cache(maxsize=256)
def _einsum_path(subscripts: str, *shapes) -> list:
    """The contraction order `np.einsum(..., optimize=True)` picks for
    operands of these shapes, searched once per shape set; passed back as
    `optimize`, it runs the same contraction."""
    return np.einsum_path(subscripts, *(np.broadcast_to(0.0, s) for s in shapes),
                          optimize=True)[0]


def _resize_einsum(subscripts: str, mh: np.ndarray, x: np.ndarray, mw: np.ndarray):
    path = _einsum_path(subscripts, mh.shape, x.shape, mw.shape)
    return np.einsum(subscripts, mh, x, mw, optimize=path)


def bilinear_resize(x: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear interpolation of (..., H, W, C) to (..., out_h, out_w, C)."""
    _require(x.ndim >= 3, f"bilinear_resize expects (...,H,W,C), got {x.shape}")
    _require(out_h >= 1 and out_w >= 1, "target extents must be >= 1")
    h, w = x.shape[-3], x.shape[-2]
    return _resize_einsum("ip,...pqc,jq->...ijc", _resize_weights(h, out_h), x,
                          _resize_weights(w, out_w))


def bilinear_resize_backward(
    x_shape: tuple[int, ...], grad_out: np.ndarray
) -> np.ndarray:
    h, w = x_shape[-3], x_shape[-2]
    out_h, out_w = grad_out.shape[-3], grad_out.shape[-2]
    return _resize_einsum("ip,...ijc,jq->...pqc", _resize_weights(h, out_h), grad_out,
                          _resize_weights(w, out_w))


# ---------------------------------------------------------------------------
# small-kernel convolution (backbone and spatial attention)
#
# im2col + GEMM (Chellapilla et al., 2006), run over the batch in blocks of
# whole images so that one block's padded input, patch matrix and padded input
# gradient stay cache-sized. Every GEMM row is one output pixel's dot product
# over the same depth, so a block's rows equal the whole batch's bit for bit
# whenever the BLAS runs both through the same kernel (it does at the
# backbone's sizes; tiny GEMMs may take a small-matrix kernel, which is why
# the tiny attention convs always run as a single block).
#
# Both passes are depth first (the fused-layer schedule of Alwani et al.,
# MICRO 2016): a worker carries one image block through every layer before
# it takes the next block, so the block's activations and gradients stay in
# its worker's reused buffers. The block size comes from the largest layer's
# per-image patch buffer; at the backbone's sizes a block is one image.
# - `_conv_stack` runs the input standardisation and every layer. A
#   forward-only pass makes no whole-batch array but the last output; a pass
#   that will run the backward keeps every layer's input and output over the
#   whole batch.
# - `_conv_stack_backward` carries a block's gradient from the last layer
#   down to the first. Per layer it applies the relu mask, gathers the
#   block's patches from the kept input, writes the block's kernel- and
#   bias-gradient partials into the block's own slot of a per-layer array,
#   and adds the input gradient tap by tap into a gradient pad of its own
#   (the activation pads' zero border must stay). The slots are
#   summed in block order once every block is done. No whole-batch patch
#   matrix or gradient is made between layers. With several blocks, rows of
#   different blocks add in another order than in one whole-batch GEMM, so
#   kernel and bias gradients differ from it in the last bits; a single
#   block (the attention convs) computes exactly that GEMM and sum.
#
# The image blocks run on one worker per core (`WORKERS`, `_run_blocks`):
# each worker pulls the next block start and reuses its own buffers, and
# every block writes only its own slice or slot of the result, and blocks
# are sized by BLOCK_BYTES alone, so the bits do not depend on the core
# count. Workers call only numpy and this module's private helpers, never a
# public function: a tracer that wraps those may keep state that is not
# thread-safe. A multi-threaded BLAS (OPENBLAS_NUM_THREADS > 1) adds its
# threads on top of these workers. `start_conv_relu_stack` returns while its
# workers still run, so the caller can overlap its own work with a forward
# pass (extraction runs a chunk's heads while the next chunk's backbone runs).


def _strided_cols(xp, kh, kw, stride, ho, wo):
    sb, sh, sw, sc = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(xp.shape[0], ho, wo, kh, kw, xp.shape[3]),
        strides=(sb, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def _out_hw(h: int, wd: int, kh: int, kw: int, stride: int, p: int) -> tuple[int, int]:
    return (h + 2 * p - kh) // stride + 1, (wd + 2 * p - kw) // stride + 1


def _pad_buffer(step: int, h: int, wd: int, c: int, p: int) -> np.ndarray:
    """A worker's reused buffer of `step` padded images; only the interior
    is ever written, so the zero border stays."""
    return np.zeros((step, h + 2 * p, wd + 2 * p, c))


def _interior(xp: np.ndarray, p: int) -> np.ndarray:
    """The part of padded images `xp` inside their zero border of width p."""
    return xp[:, p : xp.shape[1] - p, p : xp.shape[2] - p]


def _gather(xp: np.ndarray, kh: int, kw: int, stride: int, ho: int, wo: int,
            cols: np.ndarray) -> np.ndarray:
    """Copy the patches of padded images `xp` into the front of the flat
    buffer `cols`; returns them as a (images * ho * wo, kh * kw * C) matrix."""
    n, c = len(xp), xp.shape[3]
    patches = cols[: n * ho * wo * kh * kw * c].reshape(n, ho, wo, kh, kw, c)
    patches[...] = _strided_cols(xp, kh, kw, stride, ho, wo)
    return patches.reshape(n * ho * wo, kh * kw * c)


def _patch_sizes(shapes, kernels) -> list[int]:
    """Each layer's patch-matrix cells per image, given every layer's input
    (H, W, C) and the last output's in `shapes`."""
    return [ho * wo * w[..., 0].size for (ho, wo, _), (w, *_) in zip(shapes[1:], kernels)]


def _conv_stack(x, kernels, relu: bool, standardize=None, keep: bool = False):
    """Run `x` (B, H, W, C) through the convolutions `kernels`, each
    (w, b, stride, padding) and followed by relu if `relu`, one image block
    at a time: a worker carries its block through every layer before it
    takes the next block.

    `standardize` = (scale, mean, std) maps each block to
    (x / scale - mean) / std first, written straight into the first layer's
    padded input, so integer `x` is converted block by block. Starts the
    pass and returns its wait handle (see `_run_blocks`), which gives every
    layer's whole-batch input and the last output with `keep`, else only
    the last output, as a one-item list.
    """
    _require(x.ndim == 4, f"conv2d expects (B,H,W,C), got {x.shape}")
    shapes = [x.shape[1:]]  # each layer's input (H, W, C), then the last output's
    for w, _, stride, p in kernels:
        _require(w.ndim == 4, f"conv2d kernel must be rank 4, got {w.shape}")
        h, wd, c = shapes[-1]
        _require(
            c == w.shape[2], f"conv2d channel mismatch: input {c} vs kernel {w.shape[2]}"
        )
        shapes.append((*_out_hw(h, wd, *w.shape[:2], stride, p), w.shape[3]))
    bsz, last = len(x), len(kernels)
    patch_sizes = _patch_sizes(shapes, kernels)
    step = _block_images(bsz, 8 * max(patch_sizes))
    acts = [None] * (last + 1)
    for k in range(last + 1) if keep else (last,):
        acts[k] = np.empty((bsz, *shapes[k]))
    # one reused buffer for the outputs no kept array takes, sized for the largest
    act_size = max([np.prod(shapes[k + 1]) for k in range(last) if acts[k + 1] is None] or [0])

    def forward(starts, pads, cols, act):
        for i in starts:
            n = min(step, bsz - i)
            inner = _interior(pads[0][:n], kernels[0][3])
            if standardize is None:
                inner[...] = x[i : i + n]
            else:
                scale, mean, std = standardize
                np.divide(x[i : i + n], scale, out=inner)
                inner -= mean
                inner /= std
            if acts[0] is not None:
                acts[0][i : i + n] = inner
            for k, (w, b, stride, _) in enumerate(kernels):
                kh, kw, c, d = w.shape
                ho, wo = shapes[k + 1][:2]
                patches = _gather(pads[k][:n], kh, kw, stride, ho, wo, cols)
                y = acts[k + 1]
                y = act[: n * ho * wo * d].reshape(n, ho, wo, d) if y is None else y[i : i + n]
                flat = y.reshape(n * ho * wo, d)
                np.matmul(patches, w.reshape(kh * kw * c, d), out=flat)
                flat += b
                if relu:
                    np.maximum(y, 0.0, out=y)
                if k + 1 < last:
                    _interior(pads[k + 1][:n], kernels[k + 1][3])[...] = y

    return _run_blocks(forward, bsz, step, scratch=lambda: (
        [_pad_buffer(step, *shape, p) for shape, (*_, p) in zip(shapes, kernels)],
        np.empty(step * max(patch_sizes)),
        np.empty(step * act_size),
    ), result=[a for a in acts if a is not None])


def _conv_stack_backward(acts, kernels, grad_out, relu: bool, need_input_grad: bool):
    """Gradients of `_conv_stack` over `kernels`, given the arrays it keeps
    (`acts`: every layer's whole-batch input, then the last output, which
    only a relu stack needs) and the last output's gradient `grad_out`, one
    image block at a time: a worker carries its block's gradient from the
    last layer down to the first before it takes the next block.

    Returns the first layer's input gradient (None unless `need_input_grad`)
    and every layer's (kernel gradient, bias gradient).
    """
    bsz, last = len(grad_out), len(kernels)
    shapes = [a.shape[1:] for a in acts[:last]] + [grad_out.shape[1:]]
    patch_sizes = _patch_sizes(shapes, kernels)
    step = _block_images(bsz, 8 * max(patch_sizes))
    blocks = -(-bsz // step)
    # block j writes slot j of its layer's partials
    gws = [np.empty((blocks, w[..., 0].size, w.shape[3])) for w, *_ in kernels]
    gbs = [np.empty((blocks, w.shape[3])) for w, *_ in kernels]
    gx = np.empty(acts[0].shape) if need_input_grad else None
    lowest = 0 if need_input_grad else 1  # the lowest layer whose input gradient is needed
    padded = [(h + 2 * p) * (wd + 2 * p) * c for (h, wd, c), (*_, p) in zip(shapes, kernels)]

    def backward(starts, pads, cols, grad, gpad):
        for i in starts:
            n = min(step, bsz - i)
            g = grad_out[i : i + n]
            for k in range(last - 1, -1, -1):
                w, _, stride, p = kernels[k]
                kh, kw, c, d = w.shape
                h, wd = shapes[k][:2]
                ho, wo = shapes[k + 1][:2]
                rows = n * ho * wo
                gy = grad[: rows * d].reshape(n, ho, wo, d)
                if relu:
                    np.multiply(g, acts[k + 1][i : i + n] > 0.0, out=gy)
                else:
                    gy[...] = g
                flat = gy.reshape(rows, d)
                xp = pads[k][:n]
                _interior(xp, p)[...] = acts[k][i : i + n]
                patches = _gather(xp, kh, kw, stride, ho, wo, cols)
                np.matmul(patches.T, flat, out=gws[k][i // step])
                flat.sum(axis=0, out=gbs[k][i // step])
                if k < lowest:
                    break
                gxp = gpad[: n * padded[k]].reshape(n, h + 2 * p, wd + 2 * p, c)
                gxp[...] = 0.0
                # one GEMM per kernel row, into the spent patch buffer: kw * C
                # columns keep it off a BLAS's one-column (matrix-vector)
                # path, so its entries equal the whole (kh * kw * C)-column
                # GEMM's bit for bit
                taps = cols[: rows * kw * c].reshape(n, ho, wo, kw, c)
                for ki in range(kh):
                    np.matmul(flat, w[ki].reshape(kw * c, d).T, out=taps.reshape(rows, kw * c))
                    for kj in range(kw):
                        gxp[
                            :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride
                        ] += taps[:, :, :, kj]
                g = _interior(gxp, p)
            if need_input_grad:
                gx[i : i + n] = g

    _run_blocks(backward, bsz, step, scratch=lambda: (
        [_pad_buffer(step, *shape, p) for shape, (*_, p) in zip(shapes, kernels)],
        np.empty(step * max(patch_sizes)),
        np.empty(step * max(np.prod(shape) for shape in shapes[1:])),
        np.empty(step * max(padded[lowest:], default=0)),
    ))()
    return gx, [(gw.sum(axis=0).reshape(w.shape), gb.sum(axis=0))
                for gw, gb, (w, *_) in zip(gws, gbs, kernels)]


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int = 1,
    padding: int = 1,
) -> np.ndarray:
    """2-D convolution on (B, H, W, C) with kernel (kh, kw, C, D) and zero padding.

    The one-layer case of `_conv_stack`: each worker gathers its image
    blocks' patches into one reused block-sized buffer; the whole-batch
    patch matrix is never built here.
    """
    return _conv_stack(x, [(w, b, stride, padding)], relu=False)()[0]


def start_conv_relu_stack(
    x: np.ndarray, kernels, mean: float, std: float, keep: bool = False, *,
    scale: float = 1.0,
):
    """Standardise (B, H, W, C) images as (x / scale - mean) / std (the
    default scale 1.0 divides exactly), then apply each (w, b, stride,
    padding) of `kernels` as conv2d followed by relu, depth first (see
    `_conv_stack`). The pass starts on the block workers and this returns at
    once with its wait handle; `x` must not change until the handle is
    called. With one worker the pass runs before this returns.

    Calling the handle joins the workers and, with `keep`, returns the
    standardised input and every layer's relu output, each over the whole
    batch, as `conv_relu_stack_backward` takes them; else only the last
    output, as a one-item list, and no other whole-batch array is made.
    """
    return _conv_stack(x, kernels, relu=True, standardize=(scale, mean, std), keep=keep)


def conv2d_backward(
    x: np.ndarray,
    w: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    padding: int = 1,
    need_input_grad: bool = True,
):
    """Gradients of conv2d w.r.t. input, kernel, and bias; the input
    gradient is skipped (None) when the caller does not need it.

    The one-layer case of `_conv_stack_backward`: each worker gathers its
    image blocks' patches into one reused block-sized buffer; the
    whole-batch patch matrix is never built here.
    """
    gx, [(gw, gb)] = _conv_stack_backward(
        [x], [(w, None, stride, padding)], grad_out, relu=False,
        need_input_grad=need_input_grad,
    )
    return gx, gw, gb


def conv_relu_stack_backward(
    acts: list[np.ndarray], kernels, grad_out: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each layer's (kernel gradient, bias gradient) of `start_conv_relu_stack`
    over `kernels`, given the arrays it keeps (`acts`) and the gradient of
    its last output, depth first (see `_conv_stack_backward`). The
    standardised input's gradient is not computed.
    """
    return _conv_stack_backward(acts, kernels, grad_out, relu=True, need_input_grad=False)[1]
