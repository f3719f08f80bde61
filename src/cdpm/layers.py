"""Parameterized building blocks with explicit forward/backward chaining.

Each block's `forward` returns `(output, ctx)` and `backward(ctx, grad_out)`
returns the gradient w.r.t. the block input while accumulating parameter
gradients in place. The network is a fixed DAG, so gradients are chained by
hand; there is no general autodiff tape.
"""
from __future__ import annotations

import numpy as np

from . import ops


class Parameter:
    """A named trainable tensor with an accumulated gradient."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = ops.as_f64(value)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def he_normal(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """Zero-mean normal weights with std sqrt(2 / fan_in)."""
    return rng.normal(0.0, np.sqrt(2.0 / fan_in), shape)


class Block:
    """Base: children register parameters and buffers into ordered lists."""

    def __init__(self):
        self._params: list[Parameter] = []
        self._buffers: list[Parameter] = []  # saved but never optimized
        self._children: list[Block] = []

    def _param(self, name: str, value: np.ndarray) -> Parameter:
        p = Parameter(name, value)
        self._params.append(p)
        return p

    def _buffer(self, name: str, value: np.ndarray) -> Parameter:
        b = Parameter(name, value)
        self._buffers.append(b)
        return b

    def _child(self, block: "Block") -> "Block":
        self._children.append(block)
        return block

    def parameters(self) -> list[Parameter]:
        out = list(self._params)
        for c in self._children:
            out.extend(c.parameters())
        return out

    def buffers(self) -> list[Parameter]:
        out = list(self._buffers)
        for c in self._children:
            out.extend(c.buffers())
        return out

    def norm_layers(self) -> list["BatchNorm"]:
        out = [self] if isinstance(self, BatchNorm) else []
        for c in self._children:
            out.extend(c.norm_layers())
        return out


class BatchNorm(Block):
    """Per-channel normalization with stored statistics and a learned affine.

    Statistics are buffers, set by one calibration pass over a batch at
    stage boundaries (`calibrating` flag); every other forward uses them
    unchanged, so the layer is deterministic inference-mode normalization.
    """

    def __init__(self, name: str, channels: int):
        super().__init__()
        self.mean = self._buffer(f"{name}.mean", np.zeros(channels))
        self.var = self._buffer(f"{name}.var", np.ones(channels))
        self.scale = self._param(f"{name}.scale", np.ones(channels))
        self.shift = self._param(f"{name}.shift", np.zeros(channels))
        self.calibrating = False

    def forward(self, x: np.ndarray):
        if self.calibrating:
            flat = x.reshape(-1, x.shape[-1])
            self.mean.value[...] = flat.mean(axis=0)
            self.var.value[...] = flat.var(axis=0)
        out = ops.batch_norm_inference(
            x, self.mean.value, self.var.value, self.scale.value, self.shift.value
        )
        return out, x

    def backward(self, ctx, grad_out: np.ndarray) -> np.ndarray:
        gx, gscale, gshift = ops.batch_norm_inference_backward(
            ctx, self.mean.value, self.var.value, self.scale.value, grad_out
        )
        self.scale.grad += gscale
        self.shift.grad += gshift
        return gx


class Dense(Block):
    """Affine map on the last axis with optional normalization and activation."""

    def __init__(
        self,
        name: str,
        rng,
        in_dim: int,
        out_dim: int,
        activation: str = "none",
        normalize: bool = False,
    ):
        super().__init__()
        if activation not in ("none", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.w = self._param(f"{name}.w", he_normal(rng, (in_dim, out_dim), in_dim))
        self.b = self._param(f"{name}.b", np.zeros(out_dim))
        self.norm = self._child(BatchNorm(f"{name}.bn", out_dim)) if normalize else None

    def forward(self, x: np.ndarray):
        pre = ops.fully_connected(x, self.w.value, self.b.value)
        norm_ctx = None
        if self.norm is not None:
            pre, norm_ctx = self.norm.forward(pre)
        out = ops.relu(pre) if self.activation == "relu" else pre
        return out, (x, pre, norm_ctx)

    def backward(self, ctx, grad_out: np.ndarray) -> np.ndarray:
        x, pre, norm_ctx = ctx
        if self.activation == "relu":
            grad_out = ops.relu_backward(pre, grad_out)
        if self.norm is not None:
            grad_out = self.norm.backward(norm_ctx, grad_out)
        gx, gw, gb = ops.fully_connected_backward(x, self.w.value, grad_out)
        self.w.grad += gw
        self.b.grad += gb
        return gx


class Conv(Block):
    """Small-kernel 2-D convolution with optional normalization and relu."""

    def __init__(
        self,
        name: str,
        rng,
        kernel: int,
        in_ch: int,
        out_ch: int,
        stride: int = 1,
        padding: int = 1,
        activation: str = "none",
        normalize: bool = False,
    ):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.activation = activation
        fan_in = kernel * kernel * in_ch
        self.w = self._param(
            f"{name}.w", he_normal(rng, (kernel, kernel, in_ch, out_ch), fan_in)
        )
        self.b = self._param(f"{name}.b", np.zeros(out_ch))
        self.norm = self._child(BatchNorm(f"{name}.bn", out_ch)) if normalize else None

    def forward(self, x: np.ndarray):
        out = ops.conv2d(x, self.w.value, self.b.value, self.stride, self.padding)
        norm_ctx = None
        if self.norm is not None:
            out, norm_ctx = self.norm.forward(out)
        if self.activation == "relu":
            # in place; (out > 0) still marks the pre-activation sign for backward
            np.maximum(out, 0.0, out=out)
        return out, (x, out, norm_ctx)

    def backward(self, ctx, grad_out: np.ndarray) -> np.ndarray:
        x, out, norm_ctx = ctx
        if self.activation == "relu":
            grad_out = ops.relu_backward(out, grad_out)
        if self.norm is not None:
            grad_out = self.norm.backward(norm_ctx, grad_out)
        gx, gw, gb = ops.conv2d_backward(x, self.w.value, grad_out, self.stride, self.padding)
        self.w.grad += gw
        self.b.grad += gb
        return gx


class ChannelAttention(Block):
    """Squeeze-style gate on the channel axis of a feature vector.

    Two dense layers (reduce then expand) feed a sigmoid; the input is
    scaled elementwise by the gate. Works on any (..., C) input.
    """

    def __init__(self, name: str, rng, channels: int, reduction: int = 16):
        super().__init__()
        hidden = max(channels // reduction, 1)
        self.fc1 = self._child(
            Dense(f"{name}.fc1", rng, channels, hidden, "relu", normalize=True)
        )
        self.fc2 = self._child(Dense(f"{name}.fc2", rng, hidden, channels))

    def forward(self, x: np.ndarray):
        mid, ctx1 = self.fc1.forward(x)
        logits, ctx2 = self.fc2.forward(mid)
        gate = ops.sigmoid(logits)
        return x * gate, (x, ctx1, ctx2, gate)

    def backward(self, ctx, grad_out: np.ndarray) -> np.ndarray:
        x, ctx1, ctx2, gate = ctx
        ggate = grad_out * x
        glogits = ops.sigmoid_backward(gate, ggate)
        gmid = self.fc2.backward(ctx2, glogits)
        gx_gate_path = self.fc1.backward(ctx1, gmid)
        return grad_out * gate + gx_gate_path


class SpatialChannelAttention(Block):
    """Sigmoid mask from parallel spatial and channel branches.

    Spatial branch: cross-channel mean -> 3x3 conv (stride 2) -> bilinear
    resize back -> 3x3 conv. Channel branch: global average pool -> reduce
    dense -> expand dense. The branches are broadcast-added, fused by a
    1x1 convolution down to one channel, and squashed by a sigmoid; the
    input is scaled by the resulting single-channel mask.
    """

    def __init__(self, name: str, rng, channels: int, reduction: int = 16):
        super().__init__()
        hidden = max(channels // reduction, 1)
        self.spatial1 = self._child(
            Conv(f"{name}.spatial1", rng, 3, 1, 1, 2, 1, "relu", normalize=True)
        )
        self.spatial2 = self._child(
            Conv(f"{name}.spatial2", rng, 3, 1, 1, 1, 1, normalize=True)
        )
        self.channel1 = self._child(
            Dense(f"{name}.channel1", rng, channels, hidden, "relu", normalize=True)
        )
        self.channel2 = self._child(
            Dense(f"{name}.channel2", rng, hidden, channels, normalize=True)
        )
        self.fuse = self._child(Dense(f"{name}.fuse", rng, channels, 1, normalize=True))

    def forward(self, x: np.ndarray):
        b, h, w, c = x.shape
        pooled = ops.cross_channel_avg_pool(x)  # (B,H,W,1)
        s1, ctx_s1 = self.spatial1.forward(pooled)
        s_up = ops.bilinear_resize(s1, h, w)
        s2, ctx_s2 = self.spatial2.forward(s_up)  # (B,H,W,1)
        gap = ops.global_avg_pool(x)  # (B,C)
        c1, ctx_c1 = self.channel1.forward(gap)
        c2, ctx_c2 = self.channel2.forward(c1)  # (B,C)
        fused = s2 + c2[:, None, None, :]  # (B,H,W,C)
        logits, ctx_f = self.fuse.forward(fused)  # (B,H,W,1)
        mask = ops.sigmoid(logits)
        out = x * mask
        ctx = (x, ctx_s1, s1.shape, ctx_s2, ctx_c1, ctx_c2, ctx_f, mask)
        return out, ctx

    def backward(self, ctx, grad_out: np.ndarray) -> np.ndarray:
        x, ctx_s1, s1_shape, ctx_s2, ctx_c1, ctx_c2, ctx_f, mask = ctx
        gmask = (grad_out * x).sum(axis=-1, keepdims=True)
        glogits = ops.sigmoid_backward(mask, gmask)
        gfused = self.fuse.backward(ctx_f, glogits)
        gs2 = gfused.sum(axis=-1, keepdims=True)
        gc2 = gfused.sum(axis=(1, 2))
        # spatial branch
        gs_up = self.spatial2.backward(ctx_s2, gs2)
        gs1 = ops.bilinear_resize_backward(s1_shape, gs_up)
        gpooled = self.spatial1.backward(ctx_s1, gs1)
        gx_spatial = ops.cross_channel_avg_pool_backward(x.shape, gpooled)
        # channel branch
        gc1 = self.channel2.backward(ctx_c2, gc2)
        ggap = self.channel1.backward(ctx_c1, gc1)
        gx_channel = ops.global_avg_pool_backward(x.shape, ggap)
        return grad_out * mask + gx_spatial + gx_channel
