"""Pre-blocking convolution kept verbatim as a bit-identity oracle.

These are the im2col + single-GEMM `conv2d`, `conv2d_backward` and
`_col2im` (with the helpers they call) exactly as `cdpm.ops` defined them
before the convolution was computed in image blocks. The blocked code must
reproduce their outputs and input gradients bit for bit (its kernel and bias
gradients sum per-block partials, so only a single block reproduces those
bit for bit). `conv_relu_stack` and `conv_relu_stack_backward` are the
backbone's layer-by-layer forward and backward as they were before they ran
depth first.
"""
from __future__ import annotations

import numpy as np

from cdpm.ops import _require


def _strided_cols(xp, kh, kw, stride, ho, wo):
    sb, sh, sw, sc = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(xp.shape[0], ho, wo, kh, kw, xp.shape[3]),
        strides=(sb, sh * stride, sw * stride, sh, sw, sc),
        writeable=False,
    )


def _im2col(xp, cols, stride):
    _, ho, wo, kh, kw, _ = cols.shape
    cols[...] = _strided_cols(xp, kh, kw, stride, ho, wo)


def _col2im(gcols, gxp, stride):
    b, ho, wo, kh, kw, c = gcols.shape
    for ki in range(kh):
        for kj in range(kw):
            gxp[
                :, ki : ki + stride * ho : stride, kj : kj + stride * wo : stride, :
            ] += gcols[:, :, :, ki, kj, :]


def _pad_input(x: np.ndarray, p: int) -> np.ndarray:
    if not p:
        return x
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2 * p, w + 2 * p, c))
    xp[:, p : p + h, p : p + w, :] = x
    return xp


def _conv_cols(x: np.ndarray, kh: int, kw: int, stride: int, p: int):
    xp = _pad_input(x, p)
    b, hp, wp, c = xp.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    cols = np.empty((b, ho, wo, kh, kw, c))
    _im2col(xp, cols, stride)
    return cols.reshape(b * ho * wo, kh * kw * c), (b, ho, wo)


def conv2d(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int = 1,
    padding: int = 1,
    return_cols: bool = False,
):
    """2-D convolution on (B, H, W, C) with kernel (kh, kw, C, D) and zero padding.

    With return_cols=True also returns the flattened patch matrix so a
    following backward pass can skip re-gathering it.
    """
    _require(x.ndim == 4, f"conv2d expects (B,H,W,C), got {x.shape}")
    _require(w.ndim == 4, f"conv2d kernel must be rank 4, got {w.shape}")
    _require(
        x.shape[-1] == w.shape[2],
        f"conv2d channel mismatch: input {x.shape[-1]} vs kernel {w.shape[2]}",
    )
    kh, kw, c, d = w.shape
    flat, (bsz, ho, wo) = _conv_cols(x, kh, kw, stride, padding)
    out = (flat @ w.reshape(kh * kw * c, d) + b).reshape(bsz, ho, wo, d)
    if return_cols:
        return out, flat
    return out


def conv2d_backward(
    x: np.ndarray,
    w: np.ndarray,
    grad_out: np.ndarray,
    stride: int = 1,
    padding: int = 1,
    cols: np.ndarray | None = None,
    need_input_grad: bool = True,
):
    """Gradients of conv2d w.r.t. input, kernel, and bias.

    `cols` may carry the patch matrix cached by the forward pass; the input
    gradient is skipped (None) when the caller does not need it.
    """
    kh, kw, c, d = w.shape
    p = padding
    bsz, ho, wo = grad_out.shape[:3]
    flat_g = grad_out.reshape(bsz * ho * wo, d)
    if cols is None:
        cols, _ = _conv_cols(x, kh, kw, stride, p)
    gw = (cols.T @ flat_g).reshape(kh, kw, c, d)
    gb = flat_g.sum(axis=0)
    if not need_input_grad:
        return None, gw, gb
    gcols = (flat_g @ w.reshape(kh * kw * c, d).T).reshape(bsz, ho, wo, kh, kw, c)
    gxp = np.zeros((bsz, x.shape[1] + 2 * p, x.shape[2] + 2 * p, c))
    _col2im(gcols, gxp, stride)
    if p:
        return gxp[:, p:-p, p:-p, :], gw, gb
    return gxp, gw, gb


def conv_relu_stack(x, kernels, mean, std, keep=False, *, scale=1.0):
    """Whole-batch, layer-by-layer counterpart of `cdpm.ops.conv_relu_stack`:
    standardise, then conv2d and relu per layer, as the backbone's forward
    did before it ran depth first."""
    a = x / scale - mean
    a /= std
    acts = [a]
    for w, b, stride, padding in kernels:
        a = conv2d(a, w, b, stride, padding)
        np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts if keep else acts[-1:]


def conv_relu_stack_backward(acts, kernels, grad_out):
    """Whole-batch, layer-by-layer counterpart of
    `cdpm.ops.conv_relu_stack_backward`: from the last layer down, the relu
    mask, then conv2d_backward, as the backbone's backward did before it ran
    depth first. Returns each layer's (kernel gradient, bias gradient)."""
    grads = []
    g = grad_out
    for k in range(len(kernels) - 1, -1, -1):
        w, _, stride, padding = kernels[k]
        g, gw, gb = conv2d_backward(acts[k], w, g * (acts[k + 1] > 0.0), stride, padding,
                                    need_input_grad=k > 0)
        grads.append((gw, gb))
    return grads[::-1]
