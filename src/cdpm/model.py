"""The part-aligned re-identification network.

A pluggable backbone maps a 384x128 RGB image to a 24x8 feature map.
On top of it sit: K per-part feature branches (each optionally gated by a
spatial-channel attention mask), a window-detection head group (shared
window pooling, one sigmoid classification head, K gated regression
heads), an optional holistic embedding branch, and optional coarser-
granularity part branches. Descriptors concatenate part features in a
fixed order: parts 1..K, then granularities ascending, then holistic.
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from . import alignment, ops, tensorio
from .alignment import MAP_HEIGHT, WINDOW_COUNT, WINDOW_HEIGHT
from .annotations import IMAGE_HEIGHT
from .data import IMAGE_WIDTH, PIXEL_MAX
from .layers import Block, ChannelAttention, Dense, SpatialChannelAttention, init_weights

#: images per chunk of a forward-only pass over many images (`chunk_features`)
FEATURE_CHUNK = 24


class NotInitializedError(RuntimeError):
    """Inference was requested before parameters were initialized or loaded."""


@dataclass(frozen=True)
class ModelConfig:
    """Structural choices of the network."""

    classes: int
    parts: int = 6
    backbone_channels: tuple[int, ...] = (16, 32, 64, 64, 64)
    feature_dim: int = 512
    holistic_dim: int = 512
    attention_reduction: int = 16
    with_refinement: bool = True  # spatial-channel masks on part branches
    with_alignment: bool = True  # window detection heads drive part locations
    with_mgf: bool = False  # granularity branches + holistic embedding

    def __post_init__(self):
        if not 1 <= self.parts <= MAP_HEIGHT:
            raise ValueError(f"parts must be in [1, {MAP_HEIGHT}], got {self.parts}")
        for name in ("feature_dim", "holistic_dim", "attention_reduction"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.with_mgf and self.parts != alignment.NUM_PARTS:
            raise ValueError(
                f"multi-granularity features need {alignment.NUM_PARTS} parts, "
                f"got {self.parts}"
            )

    @property
    def granularities(self) -> tuple[int, ...]:
        """Coarser part counts whose branches follow the K parts."""
        return alignment.GRANULARITIES if self.with_mgf else ()

    @property
    def descriptor_dim(self) -> int:
        dim = (self.parts + sum(self.granularities)) * self.feature_dim
        return dim + (self.holistic_dim if self.with_mgf else 0)


class ToyBackbone(Block):
    """Five 3x3 conv stages (strides 2,2,2,2,1) mapping 384x128x3 to 24x8xC.

    Images arrive as stored uint8 pixels, or as float intensities in [0, 1]
    (augmented training batches, calibration). Each image block is
    standardized with fixed constants, so activations start at a healthy
    scale when training from scratch, while it is written into the first
    conv's padded input. uint8 pixels are divided by `data.PIXEL_MAX` first,
    which gives the bits of standardizing `data.load_image`'s floats.
    Callers reach it as `net.backbone`: `features` for a forward-only pass,
    `chunk_features` for one over many images that overlaps the caller's
    work on each chunk, and `forward` and `backward` for a step that trains
    it.
    """

    STRIDES = (2, 2, 2, 2, 1)
    INPUT_MEAN = 0.45
    INPUT_STD = 0.225

    def __init__(self, channels: tuple[int, ...]):
        super().__init__()
        if len(channels) != len(self.STRIDES):
            raise ValueError(f"need {len(self.STRIDES)} channel widths, got {channels}")
        self.out_channels = channels[-1]
        widths = (3,) + tuple(channels)
        # each conv's 3x3 kernel (fan-in 9 C_in) and bias; every conv pads by 1
        self.convs = [
            (self._param(f"backbone.conv{i + 1}.w", np.zeros((3, 3, c_in, c_out)), 9 * c_in),
             self._param(f"backbone.conv{i + 1}.b", np.zeros(c_out)))
            for i, (c_in, c_out) in enumerate(zip(widths, widths[1:]))
        ]

    def _kernels(self) -> list[tuple]:
        return [(w.value, b.value, s, 1) for (w, b), s in zip(self.convs, self.STRIDES)]

    def _stack(self, images, keep: bool):
        """Start the conv stack on the block workers; returns its wait handle."""
        images = np.asarray(images)
        if images.ndim != 4 or images.shape[1:] != (IMAGE_HEIGHT, IMAGE_WIDTH, 3):
            raise ops.ShapeError(
                f"backbone expects (B,{IMAGE_HEIGHT},{IMAGE_WIDTH},3), got {images.shape}"
            )
        # the one place that tells stored pixels from float intensities
        if images.dtype == np.uint8:
            scale = PIXEL_MAX
        else:
            images, scale = ops.as_f64(images), 1.0
        return ops.start_conv_relu_stack(images, self._kernels(), self.INPUT_MEAN,
                                         self.INPUT_STD, keep, scale=scale)

    def features(self, images: np.ndarray) -> np.ndarray:
        """The feature map alone, for a pass with no backbone backward; no
        other whole-batch activation is made. uint8 pixels and their float
        intensities give the same bits, and no float copy of a uint8 batch
        is made."""
        return self._stack(images, keep=False)()[0]

    def chunk_features(self, items, read):
        """Yield (chunk, feature map) for ceil(N / `FEATURE_CHUNK`) consecutive
        slices of the N `items`, in order and at most one item apart in size
        (a lone image takes numpy's matrix-vector path in the dense layers,
        and other bits); `read(chunk)` gives a chunk's images.

        Chunk i + 1's pass runs on the block workers while the caller works
        on chunk i's map: for each chunk this reads the next chunk (on the
        calling thread), joins this chunk's pass, starts the next one and
        then yields. On any error, or when the caller closes it early, the
        pass in flight is joined before this returns, so no worker outlives
        it. With one worker each pass runs when it starts.
        """
        n = -(-len(items) // FEATURE_CHUNK)
        chunks = [items[len(items) * i // n : len(items) * (i + 1) // n] for i in range(n)]
        if not chunks:
            return
        wait = self._stack(read(chunks[0]), keep=False)
        try:
            for chunk, following in zip(chunks, [*chunks[1:], None]):
                images = None if following is None else read(following)
                fmap, wait = wait()[0], None
                if following is not None:
                    wait = self._stack(images, keep=False)
                yield chunk, fmap
        finally:
            if wait is not None:
                # the error or early stop that got here is what the caller sees
                with contextlib.suppress(Exception):
                    wait()

    def forward(self, images: np.ndarray):
        """The feature map and the activations `backward` takes: the
        standardised input and every conv's relu output."""
        acts = self._stack(images, keep=True)()
        return acts[-1], acts

    def backward(self, acts, grad_out: np.ndarray) -> None:
        grads = ops.conv_relu_stack_backward(acts, self._kernels(), grad_out)
        for (w, b), (gw, gb) in zip(self.convs, grads):
            w.grad += gw
            b.grad += gb


class PartBranch(Block):
    """Optional attention mask, window pooling, feature reduction, classifier."""

    def __init__(self, name: str, cfg: ModelConfig, in_channels: int):
        super().__init__()
        self.refine = (
            self._child(
                SpatialChannelAttention(f"{name}.sca", in_channels, cfg.attention_reduction)
            )
            if cfg.with_refinement
            else None
        )
        self.reduce = self._child(Dense(f"{name}.reduce", in_channels, cfg.feature_dim, "relu"))
        self.classifier = self._child(
            Dense(f"{name}.classifier", cfg.feature_dim, cfg.classes)
        )

    def forward(self, window: np.ndarray, refine_active: bool):
        """window: (B, h, w, C) -> part feature (B, F) and class scores (B, classes)."""
        refine_ctx = None
        gated = window
        if refine_active:
            gated, refine_ctx = self.refine.forward(window)
        pooled = ops.global_avg_pool(gated)
        feat, ctx_r = self.reduce.forward(pooled)
        scores, ctx_c = self.classifier.forward(feat)
        return feat, scores, (window.shape, refine_ctx, ctx_r, ctx_c)

    def backward(self, ctx, grad_scores: np.ndarray) -> np.ndarray:
        """Returns the gradient w.r.t. the input window."""
        window_shape, refine_ctx, ctx_r, ctx_c = ctx
        gfeat = self.classifier.backward(ctx_c, grad_scores)
        gpooled = self.reduce.backward(ctx_r, gfeat)
        ggated = ops.global_avg_pool_backward(window_shape, gpooled)
        if refine_ctx is not None:
            return self.refine.backward(refine_ctx, ggated)
        return ggated


class DetectionHeads(Block):
    """Window classification and per-part offset regression heads.

    Both consume the shared per-window pooled vectors. The classification
    head is a dense layer plus a dense map to K+1 sigmoid scores. Each of
    the K regression heads owns a channel-attention gate, a dense layer,
    and a dense map to one tanh-normalized offset; the heads share nothing
    with each other.
    """

    def __init__(self, cfg: ModelConfig, in_channels: int):
        super().__init__()
        self.parts = cfg.parts
        self.cls_reduce = self._child(
            Dense("valign.cls.conv", in_channels, in_channels, "relu", normalize=True)
        )
        self.cls_out = self._child(Dense("valign.cls.fc", in_channels, cfg.parts + 1))
        self.reg_attn = []
        self.reg_reduce = []
        self.reg_out = []
        for k in range(1, cfg.parts + 1):
            self.reg_attn.append(
                self._child(ChannelAttention(f"valign.reg{k}.attn", in_channels,
                                             cfg.attention_reduction))
            )
            self.reg_reduce.append(
                self._child(Dense(f"valign.reg{k}.conv", in_channels, in_channels,
                                  "relu", normalize=True))
            )
            self.reg_out.append(self._child(Dense(f"valign.reg{k}.fc", in_channels, 1)))

    def forward(self, window_vecs: np.ndarray):
        """window_vecs: (B, R, C) -> scores (B, R, K+1), offsets (B, R, K)."""
        mid, ctx_cr = self.cls_reduce.forward(window_vecs)
        logits, ctx_co = self.cls_out.forward(mid)
        scores = ops.sigmoid(logits)
        offsets = []
        reg_ctxs = []
        for k in range(self.parts):
            a, ctx_a = self.reg_attn[k].forward(window_vecs)
            m, ctx_m = self.reg_reduce[k].forward(a)
            pre, ctx_o = self.reg_out[k].forward(m)
            offsets.append(ops.tanh(pre)[..., 0])
            reg_ctxs.append((ctx_a, ctx_m, ctx_o))
        out_offsets = np.stack(offsets, axis=-1)
        ctx = (window_vecs.shape, ctx_cr, ctx_co, scores, reg_ctxs, out_offsets)
        return scores, out_offsets, ctx

    def backward(self, ctx, grad_scores: np.ndarray, grad_offsets: np.ndarray):
        """Returns the gradient w.r.t. the shared window vectors."""
        vec_shape, ctx_cr, ctx_co, scores, reg_ctxs, offsets = ctx
        glogits = ops.sigmoid_backward(scores, grad_scores)
        gmid = self.cls_out.backward(ctx_co, glogits)
        gvecs = self.cls_reduce.backward(ctx_cr, gmid)
        for k in range(self.parts):
            ctx_a, ctx_m, ctx_o = reg_ctxs[k]
            gpre = ops.tanh_backward(offsets[..., k], grad_offsets[..., k])[..., None]
            gm = self.reg_out[k].backward(ctx_o, gpre)
            ga = self.reg_reduce[k].backward(ctx_m, gm)
            gvecs = gvecs + self.reg_attn[k].backward(ctx_a, ga)
        return gvecs


class HolisticBranch(Block):
    """Whole-map pooling into a unit-norm embedding."""

    def __init__(self, cfg: ModelConfig, in_channels: int):
        super().__init__()
        self.fc = self._child(Dense("holistic.fc", in_channels, cfg.holistic_dim))

    def forward(self, fmap: np.ndarray):
        pooled = ops.global_avg_pool(fmap)
        raw, ctx_fc = self.fc.forward(pooled)
        emb = ops.l2_normalize(raw)
        return emb, (fmap.shape, ctx_fc, raw)

    def backward(self, ctx, grad_emb: np.ndarray) -> np.ndarray:
        fmap_shape, ctx_fc, raw = ctx
        graw = ops.l2_normalize_backward(raw, grad_emb)
        gpooled = self.fc.backward(ctx_fc, graw)
        return ops.global_avg_pool_backward(fmap_shape, gpooled)


def gather_windows(fmap: np.ndarray, tops: np.ndarray, height: int) -> np.ndarray:
    """Slice a per-image window (tops may differ per image): (B, height, W, C)."""
    b = fmap.shape[0]
    rows = tops[:, None] + np.arange(height)[None, :]
    return fmap[np.arange(b)[:, None], rows]


def scatter_window_grad(gfmap: np.ndarray, tops: np.ndarray, gwin: np.ndarray) -> None:
    """Accumulate window gradients back onto the feature-map gradient, one
    in-place slice add per image (an indexed add gathers and scatters a
    copy, and is slower)."""
    h = gwin.shape[1]
    for i, top in enumerate(tops):
        gfmap[i, top : top + h] += gwin[i]


class CdpmNetwork(Block):
    """Backbone plus all heads; owns the parameter registry and checkpoints.

    With `rng`, its one draw keys every weight's `init_weights` stream; without
    it the parameters keep their constants until a checkpoint is loaded.
    `part_branches` holds every part branch in descriptor order (the K parts,
    then each granularity's parts), and `heights[k]` is branch k's window
    height; a tops array's column k is branch k's window top.
    """

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.cfg = cfg
        self.initialized = rng is not None
        self.backbone = self._child(ToyBackbone(cfg.backbone_channels))
        c = self.backbone.out_channels
        self.part_branches = [
            self._child(PartBranch(f"part{k}", cfg, c))
            for k in range(1, cfg.parts + 1)
        ]
        self.heads = self._child(DetectionHeads(cfg, c)) if cfg.with_alignment else None
        self.holistic = self._child(HolisticBranch(cfg, c)) if cfg.with_mgf else None
        # registered after holistic, which fixes the parameter and checkpoint order
        self.part_branches += [
            self._child(PartBranch(f"g{g}.part{j}", cfg, c))
            for g in cfg.granularities
            for j in range(1, g + 1)
        ]
        self.heights = alignment.branch_heights(cfg.parts, cfg.granularities)
        # the part tops of uniform division, (K,)
        self.uniform_tops = alignment.layout_tops(alignment.part_bounds(0, MAP_HEIGHT, cfg.parts))
        names = [p.name for p in self.parameters()]
        if len(names) != len(set(names)):
            raise ValueError("parameter names must be unique")
        if rng is not None:
            init_weights(self, int(rng.integers(2**63)))

    # -- parameter registry ------------------------------------------------

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def baseline_parameters(self):
        """Backbone and base part branches without their attention masks."""
        return [p for p in self.parameters() if p.name.startswith("backbone.")
                or (p.name.startswith("part") and ".sca." not in p.name)]

    # -- checkpoints ---------------------------------------------------------

    _META_FIELDS = (
        "classes parts feature_dim holistic_dim attention_reduction "
        "with_refinement with_alignment with_mgf"
    ).split()
    _FLAG_FIELDS = ("with_refinement", "with_alignment", "with_mgf")

    def save(self, path) -> None:
        tensors: dict[str, np.ndarray] = {
            "__meta__": np.array(
                [float(getattr(self.cfg, f)) for f in self._META_FIELDS]
            ),
            "__meta_channels__": np.array(self.cfg.backbone_channels, dtype=np.float64),
        }
        for p in (*self.parameters(), *self.buffers()):
            tensors[p.name] = p.value
        tensorio.save_tensors(path, tensors)

    @classmethod
    def _meta_ints(cls, path, tensors: dict, key: str, names, stored: int) -> list[int]:
        """Pop a meta vector and check each field is an integer in its range.

        Flags are 0 or 1 and parts fit the feature map; every other field is
        an extent or a divisor, at least 1 and at most the number of values
        the checkpoint stores.
        """
        vec = tensors.pop(key, None)
        if vec is None or vec.shape != (len(names),):
            found = "missing" if vec is None else f"shape {vec.shape}"
            raise tensorio.FormatError(
                f"{path}: {key} must hold {len(names)} values, found {found}"
            )
        out = []
        for name, v in zip(names, vec):
            low, high = (0, 1) if name in cls._FLAG_FIELDS else (1, stored)
            if name == "parts":
                high = MAP_HEIGHT
            if not (np.isfinite(v) and v == np.floor(v) and low <= v <= high):
                raise tensorio.FormatError(
                    f"{path}: {key} field {name} = {v} is not an integer "
                    f"in [{low}, {high}]"
                )
            out.append(int(v))
        return out

    @classmethod
    def load(cls, path) -> "CdpmNetwork":
        tensors = tensorio.load_tensors(path)
        stored = sum(t.size for t in tensors.values())
        meta = cls._meta_ints(path, tensors, "__meta__", cls._META_FIELDS, stored)
        convs = [f"conv{i + 1}" for i in range(len(ToyBackbone.STRIDES))]
        channels = cls._meta_ints(path, tensors, "__meta_channels__", convs, stored)
        kw = dict(zip(cls._META_FIELDS, meta))
        for name in cls._FLAG_FIELDS:
            kw[name] = bool(kw[name])
        try:
            cfg = ModelConfig(backbone_channels=tuple(channels), **kw)
        except ValueError as e:
            raise tensorio.FormatError(f"{path}: {e}") from e
        net = cls(cfg)
        slots = {p.name: p for p in (*net.parameters(), *net.buffers())}
        if set(slots) != set(tensors):
            missing = set(slots) ^ set(tensors)
            raise tensorio.FormatError(
                f"{path}: checkpoint does not match model structure: {missing}"
            )
        for name, value in tensors.items():
            if slots[name].value.shape != value.shape:
                raise tensorio.FormatError(f"{path}: shape mismatch for {name}")
            slots[name].value[...] = value
        net.initialized = True
        return net

    # -- forward pieces ------------------------------------------------------

    def calibrate(self, images: np.ndarray) -> None:
        """Fit every normalization layer's statistics with one batch pass.

        Runs all heads, and all branches on uniform-division windows, while
        the layers record their input statistics; called at stage boundaries.
        """
        norms = self.norm_layers()
        for n in norms:
            n.calibrating = True
        try:
            fmap = self.backbone.features(images)
            uniform = np.tile(self.uniform_tops, (len(fmap), 1))
            self._branch_features(fmap, alignment.branch_tops(uniform, self.cfg.granularities))
            if self.heads is not None:
                self.detection_forward(fmap)
        finally:
            for n in norms:
                n.calibrating = False

    def window_vectors(self, fmap: np.ndarray):
        """Pooled vector per sliding window: (B, R, C)."""
        vecs = [fmap[:, r : r + WINDOW_HEIGHT].mean(axis=(1, 2)) for r in range(WINDOW_COUNT)]
        return np.stack(vecs, axis=1)

    def window_vectors_backward(self, fmap_shape, grad_vecs: np.ndarray) -> np.ndarray:
        g = np.zeros(fmap_shape)
        h, w = WINDOW_HEIGHT, fmap_shape[2]
        for r in range(WINDOW_COUNT):
            g[:, r : r + h] += grad_vecs[:, r][:, None, None, :] / (h * w)
        return g

    def detection_forward(self, fmap: np.ndarray):
        """Window scores and offsets for a feature-map batch, and the ctx
        `heads.backward` takes."""
        return self.heads.forward(self.window_vectors(fmap))

    # -- selection and inference ----------------------------------------------

    def select_part_windows(
        self, scores: np.ndarray, offsets: np.ndarray, selection: alignment.SelectionConfig
    ) -> np.ndarray:
        """Per-image 1-based window index for each part, (B, K), from scores
        (B, R, K+1), whose column k - 1 is part k, and offsets (B, R, K)."""
        parts = self.cfg.parts
        return alignment.select_window(
            scores[..., :parts].swapaxes(1, 2), offsets.swapaxes(1, 2), selection
        )

    def part_tops(
        self, fmap: np.ndarray, selection: alignment.SelectionConfig
    ) -> np.ndarray:
        """Window top of each part per image, (B, K): the detected windows, or
        uniform division when the network has no detection heads."""
        if self.heads is None:
            return np.tile(self.uniform_tops, (len(fmap), 1))
        scores, offsets, _ = self.detection_forward(fmap)
        return self.select_part_windows(scores, offsets, selection) - 1

    def _branch_features(self, fmap: np.ndarray, tops: np.ndarray) -> list[np.ndarray]:
        """Every part branch's feature, given its window tops (B, branches)."""
        return [
            branch.forward(gather_windows(fmap, tops[:, k], height),
                           self.cfg.with_refinement)[0]
            for k, (branch, height) in enumerate(zip(self.part_branches, self.heights))
        ]

    def descriptor(
        self, images: np.ndarray, selection: alignment.SelectionConfig | None = None
    ) -> np.ndarray:
        """Concatenated image representation, shape (B, descriptor_dim), of
        uint8 pixels or [0, 1] float intensities (see `ToyBackbone.features`),
        read at the part windows `part_tops` selects."""
        fmap = self.backbone.features(images)
        tops = self.part_tops(fmap, selection or alignment.SelectionConfig())
        return self.feature_descriptor(fmap, tops)

    def feature_descriptor(self, fmap: np.ndarray, part_tops: np.ndarray) -> np.ndarray:
        """The descriptor of the images whose backbone feature map is `fmap`,
        read at the part windows whose tops are `part_tops` (B, K), detected,
        uniform or taken from ground truth alike."""
        if not self.initialized:
            raise NotInitializedError("parameters are neither initialized nor loaded")
        pieces = self._branch_features(
            fmap, alignment.branch_tops(part_tops, self.cfg.granularities)
        )
        if self.holistic is not None:
            emb, _ = self.holistic.forward(fmap)
            pieces.append(emb)
        return np.concatenate(pieces, axis=1)
