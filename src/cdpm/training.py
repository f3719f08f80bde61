"""Stage-wise training: schedules, batch composition, and the update loop.

Three stages: the identity baseline trains first; the detection heads,
attention masks, and any extra branches train second with the baseline
frozen; everything fine-tunes jointly in the third stage. Each stage is one
row (`Stage`) holding its lr schedule, its step flags and its parameters;
epoch counts and lr milestones scale together by one desk-scale factor.
The train split's offline copies are one table of arrays (`TrainSet`, one
row per copy), and a batch is a set of its row indices. All sampling comes
from generators seeded from one master seed, so a run is a pure function
of (seed, config, dataset).
"""
from __future__ import annotations

import contextlib
import csv
import logging
import os
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import alignment, augment, data, losses
from .annotations import BoundaryAnnotation, body_rows
from .augment import AugmentationConfig
from .layers import Parameter
from .losses import LossWeights, TripletConfig
from .model import CdpmNetwork, ModelConfig, gather_windows, scatter_window_grad

log = logging.getLogger(__name__)


class TrainingDiverged(RuntimeError):
    """A loss became non-finite; carries the point of failure."""

    def __init__(self, stage: str, epoch: int, batch: int, terms: dict[str, float]):
        super().__init__(
            f"non-finite loss at {stage} epoch {epoch} batch {batch}: {terms}"
        )
        self.stage, self.epoch, self.batch, self.terms = stage, epoch, batch, terms


# ---------------------------------------------------------------------------
# schedule


@dataclass(frozen=True)
class StepFlags:
    """Which paths are active in a given stage."""

    refinement: bool  # attention masks multiply the part windows
    detection: bool  # window classification + regression losses
    mgf: bool  # granularity branches and holistic triplet term
    backbone_grad: bool  # propagate into and accumulate backbone gradients


@dataclass(frozen=True)
class Stage:
    """One row of the stage table: its lr schedule, the paths its steps run
    and the parameters it updates."""

    name: str
    epochs: int
    base_lr: float
    milestones: tuple[int, ...]  # lr multiplied by 0.1 from each of these epochs on
    flags: StepFlags  # the paths each of the stage's steps runs
    params: tuple[Parameter, ...]  # what the optimizer updates; empty: the stage is skipped


def _scaled(epochs: int, scale: float) -> int:
    return max(1, int(round(epochs * scale)))


def stage_schedule(net: CdpmNetwork, scale: float = 1.0) -> list[Stage]:
    """The network's three stages, epoch counts and milestones scaled by one
    factor: stages 1 and 2 decay every 20 and 15 epochs, stage 3 once at
    epoch 20. Stage 1 trains the baseline (backbone and base part branches
    without their attention masks) with every other path off; stage 2 trains
    the rest with the backbone frozen; stage 3 trains everything. The same
    `cfg.with_*` settings decide which modules exist, so a path is on only
    where its module is, and stage 2 has no parameters when none exists."""
    cfg = net.cfg
    e1, d1, e2, d2 = (_scaled(n, scale) for n in (50, 20, 40, 15))
    baseline = tuple(net.baseline_parameters())
    new = tuple(p for p in net.parameters() if p not in baseline)
    modules = StepFlags(refinement=cfg.with_refinement, detection=cfg.with_alignment,
                        mgf=cfg.with_mgf, backbone_grad=False)
    return [
        Stage("stage1_baseline", e1, 0.01, tuple(range(d1, e1, d1)),
              StepFlags(refinement=False, detection=False, mgf=False, backbone_grad=True),
              baseline),
        Stage("stage2_new_modules", e2, 0.01, tuple(range(d2, e2, d2)), modules, new),
        Stage("stage3_end2end", _scaled(30, scale), 0.001, (_scaled(20, scale),),
              replace(modules, backbone_grad=True), tuple(net.parameters())),
    ]


def learning_rate(stage: Stage, epoch: int) -> float:
    """Piecewise-constant rate as a pure function of the epoch index."""
    if not 0 <= epoch < stage.epochs:
        raise ValueError(f"epoch {epoch} outside stage {stage.name}")
    return stage.base_lr * 0.1 ** sum(epoch >= m for m in stage.milestones)


# ---------------------------------------------------------------------------
# optimizer


class SGDMomentum:
    """v <- momentum * v + grad; p <- p - lr * v."""

    def __init__(self, momentum: float):
        self.momentum = momentum
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, params, lr: float) -> None:
        for p in params:
            v = self.velocity.get(p.name)
            if v is None:
                v = self.velocity[p.name] = np.zeros_like(p.value)
            v *= self.momentum
            v += p.grad
            p.value -= lr * v


# ---------------------------------------------------------------------------
# the train set: one row per offline copy, one array per fact


@dataclass(frozen=True)
class TrainSet:
    """The train split's offline copies in split order, each image's copies
    together; a non-aligned row's bounds divide [0, MAP_HEIGHT)."""

    records: list[data.Record]  # (N,) the image of each row
    shifts: np.ndarray  # (N, 2) int offline (dy, dx) in pixels
    labels: np.ndarray  # (N,) int64 1-based train classes
    aligned: np.ndarray  # (N,) bool: detection targets and part windows from the body
    tops: np.ndarray  # (N, branches) int window tops, one per part branch
    bounds: np.ndarray  # (N, K + 1) part boundaries in feature rows

    def __len__(self) -> int:
        return len(self.records)


def build_train_set(
    index: data.DatasetIndex,
    annotations: dict[str, BoundaryAnnotation],
    model_cfg: ModelConfig,
    aug: AugmentationConfig,
    rng: np.random.Generator,
) -> TrainSet:
    """Expand the train split into offline copies with per-copy supervision.

    Aligned supervision (ground-truth part windows plus detection targets)
    applies only when the model runs with alignment and `body_rows` finds a
    body in the shifted copy; otherwise the copy trains with uniform part
    locations and is excluded from the detection losses.
    """
    records, shifts, spans = [], [], []
    for record in index.split("train"):
        ann = annotations.get(record.image_id)
        for dy, dx in augment.offline_shifts(rng, aug.translation_copies):
            records.append(record)
            shifts.append((dy, dx))
            spans.append(body_rows(ann, dy) if model_cfg.with_alignment else None)
    upper, lower = np.array(
        [span or (0, alignment.MAP_HEIGHT) for span in spans], dtype=np.float64
    ).reshape(-1, 2).T
    bounds = alignment.part_bounds(upper, lower, model_cfg.parts)
    return TrainSet(
        records=records,
        shifts=np.array(shifts, dtype=np.int64).reshape(-1, 2),
        labels=np.array([r.label for r in records], dtype=np.int64),
        aligned=np.array([span is not None for span in spans], dtype=bool),
        tops=alignment.branch_tops(alignment.layout_tops(bounds), model_cfg.granularities),
        bounds=bounds,
    )


class ImageStore:
    """Lazy uint8 image cache keyed by path, holding at most LIMIT images.

    `load` hands out the stored pixels themselves, read-only; callers that
    change an image work on a copy (`augment` always makes one).
    """

    LIMIT = 8000

    def __init__(self):
        self._store: dict[Path, np.ndarray] = {}

    def load(self, path: Path) -> np.ndarray:
        cached = self._store.get(path)
        if cached is None:
            cached = data.read_person_image(path)
            cached.flags.writeable = False
            if len(self._store) < self.LIMIT:
                self._store[path] = cached
        return cached


# ---------------------------------------------------------------------------
# batches


@dataclass
class Batch:
    images: np.ndarray | None  # (B, 384, 128, 3); None from load_images=False,
    # as in every frozen-backbone stage (its steps read precomputed features)
    labels: np.ndarray  # (B,) 1-based train classes
    tops: np.ndarray  # (B, branches): column k is net.part_branches[k]'s top
    aligned_idx: np.ndarray  # batch positions with detection targets
    bounds: np.ndarray  # (Na, K + 1) part boundaries of the aligned positions
    rows: np.ndarray  # (B,) rows of the train set


def load_copy(train: TrainSet, row: int, store: ImageStore) -> np.ndarray:
    """The row's uint8 pixels, translated by its offline shift."""
    img = store.load(train.records[row].path)
    dy, dx = train.shifts[row]
    if dy or dx:
        img = augment.translate(img, dy, dx)
    return img


def compose_batch(
    train: TrainSet,
    store: ImageStore,
    rng: np.random.Generator,
    aug: AugmentationConfig,
    batch_size: int,
    triplet: TripletConfig | None = None,
    load_images: bool = True,
) -> Batch:
    """Draw one batch of rows: uniform sampling, or P identities x A images."""
    if not len(train):
        raise data.DataError("cannot compose a batch from an empty dataset")
    if triplet is None:
        rows = rng.choice(len(train), size=batch_size, replace=len(train) < batch_size)
    else:
        label_pool = np.unique(train.labels)
        if len(label_pool) < triplet.identities_per_batch:
            raise data.DataError(
                f"triplet batches need {triplet.identities_per_batch} identities, "
                f"dataset has {len(label_pool)}"
            )
        picked = rng.choice(label_pool, size=triplet.identities_per_batch, replace=False)
        take = triplet.images_per_identity
        pools = [np.flatnonzero(train.labels == label) for label in picked]
        rows = np.concatenate([rng.choice(pool, take, replace=len(pool) < take)
                               for pool in pools])
    images = None
    if load_images:
        # random erasing writes float noise, so augmented batches are float
        images = np.stack([
            augment.apply_online(data.to_unit_float(load_copy(train, r, store)), rng, aug)
            for r in rows
        ])
    aligned_idx = np.flatnonzero(train.aligned[rows])
    return Batch(
        images=images,
        labels=train.labels[rows],
        tops=train.tops[rows],
        aligned_idx=aligned_idx,
        bounds=train.bounds[rows[aligned_idx]],
        rows=rows,
    )


# ---------------------------------------------------------------------------
# one optimization step


def train_step(
    net: CdpmNetwork,
    batch: Batch,
    flags: StepFlags,
    weights: LossWeights,
    triplet: TripletConfig,
    fmap: np.ndarray | None = None,
) -> dict[str, float]:
    """Forward all active paths, backpropagate, and accumulate gradients.

    Returns the loss terms; the caller applies the optimizer step. A
    frozen-backbone step takes its feature maps precomputed in `fmap`; a
    step that trains the backbone computes them from `batch.images`. Each
    input is built on the path that reads it: detection targets from
    `batch.bounds` when detection is on, the window-vector gradient only
    when the backbone trains. An mgf step adds the triplet term, so its
    batch must be P identities x A images (`triplet`).
    """
    if (fmap is not None) == flags.backbone_grad:
        raise ValueError("fmap must be given exactly when the backbone is frozen")
    if flags.backbone_grad:
        fmap, bb_acts = net.backbone.forward(batch.images)
    gfmap = np.zeros_like(fmap) if flags.backbone_grad else None
    terms: dict[str, float] = {}

    # loss_f sums each group (the parts, then each granularity: one window
    # height per group), then the groups; that order fixes the bits
    groups: dict[int, float] = {}
    branches = net.part_branches if flags.mgf else net.part_branches[: net.cfg.parts]
    for k, branch in enumerate(branches):
        height, tops = net.heights[k], batch.tops[:, k]
        _, scores, ctx = branch.forward(gather_windows(fmap, tops, height), flags.refinement)
        lk, gscores = losses.part_softmax_loss_with_grad(scores, batch.labels)
        groups[height] = groups.get(height, 0.0) + lk
        gwin = branch.backward(ctx, gscores)
        if gfmap is not None:
            scatter_window_grad(gfmap, tops, gwin)
    terms["loss_f"] = loss_f = sum(groups.values())

    loss_c, loss_r = 0.0, 0.0
    if flags.detection and batch.aligned_idx.size:
        sub = fmap[batch.aligned_idx]
        soft = alignment.soft_label_matrix(batch.bounds)
        targets, mask = alignment.offset_targets(batch.bounds)
        scores, offsets, dctx = net.detection_forward(sub)
        loss_c, gscores = losses.window_classification_loss_with_grad(scores, soft)
        goffsets = np.zeros_like(offsets)
        for k in range(net.cfg.parts):
            lr_k, gk = losses.regression_loss_with_grad(
                offsets[:, :, k], targets[:, :, k], mask[:, :, k]
            )
            loss_r += lr_k
            goffsets[:, :, k] = gk
        gvecs = net.heads.backward(dctx, weights.lambda1 * gscores, weights.lambda2 * goffsets)
        if gfmap is not None:
            gfmap[batch.aligned_idx] += net.window_vectors_backward(sub.shape, gvecs)
    terms["loss_c"] = loss_c
    terms["loss_r"] = loss_r

    loss_g = 0.0
    if flags.mgf:
        emb, hctx = net.holistic.forward(fmap)
        loss_g, gemb = losses.batch_hard_triplet_loss_with_grad(
            emb, batch.labels, triplet
        )
        ghol = net.holistic.backward(hctx, gemb)
        if gfmap is not None:
            gfmap += ghol
    terms["loss_g"] = loss_g

    if gfmap is not None:
        net.backbone.backward(bb_acts, gfmap)
    terms["total"] = losses.total_loss(loss_f, loss_c, loss_r, weights, loss_g)
    return terms


# ---------------------------------------------------------------------------
# the full run


@dataclass(frozen=True)
class TrainSettings:
    seed: int = 0
    epoch_scale: float = 1.0
    batch_size: int = 48
    momentum: float = 0.9
    weights: LossWeights = LossWeights()
    triplet: TripletConfig = TripletConfig()
    augmentation: AugmentationConfig = AugmentationConfig()

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 < self.epoch_scale < float("inf"):
            raise ValueError(
                f"epoch_scale must be positive and finite, got {self.epoch_scale}"
            )


@dataclass
class TrainResult:
    network: CdpmNetwork
    final_checkpoint: Path
    log_rows: list[dict] = field(default_factory=list)


def _build_feature_cache(
    net: CdpmNetwork, train: TrainSet, rows: np.ndarray, store: ImageStore
) -> np.ndarray:
    """Frozen-backbone feature maps of the given (non-empty) rows, without
    online augmentation, in an array mapped over an unlinked temporary file
    whose blocks are reserved first: a full temporary directory is an
    OSError here, not a SIGBUS at a later write."""
    def read(chunk):
        return np.stack([load_copy(train, r, store) for r in chunk])

    done = 0
    with contextlib.closing(net.backbone.chunk_features(rows, read)) as chunks:
        for chunk, fmap in chunks:
            if not done:
                with tempfile.TemporaryFile() as fh:
                    os.posix_fallocate(fh.fileno(), 0, len(rows) * fmap[0].nbytes)
                    cache = np.memmap(fh, fmap.dtype, "r+", shape=(len(rows), *fmap.shape[1:]))
            cache[done : done + len(chunk)] = fmap
            done += len(chunk)
    return cache


def write_train_log(path: Path, rows: list[dict]) -> None:
    fields = ["stage", "epoch", "lr", "loss_f", "loss_c", "loss_r", "loss_g", "total"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in fields})


def run_training(
    index: data.DatasetIndex,
    model_cfg: ModelConfig,
    settings: TrainSettings,
    out_dir: str | Path,
) -> TrainResult:
    """Execute the full stage schedule and write per-stage checkpoints."""
    master = np.random.SeedSequence(settings.seed)
    init_seq, shift_seq, batch_seq = master.spawn(3)
    net = CdpmNetwork(model_cfg, np.random.default_rng(init_seq))
    train = build_train_set(
        index, index.annotations, model_cfg, settings.augmentation,
        np.random.default_rng(shift_seq),
    )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = ImageStore()
    optimizer = SGDMomentum(settings.momentum)
    batch_rng = np.random.default_rng(batch_seq)
    result = TrainResult(network=net, final_checkpoint=out_dir / "final.cdpm")
    for stage in stage_schedule(net, settings.epoch_scale):
        if not stage.params:
            log.info("skipping %s: no trainable parameters in this configuration",
                     stage.name)
            continue
        use_triplet = settings.triplet if stage.flags.mgf else None
        batches = max(1, len(train) // (use_triplet or settings).batch_size)
        calib = compose_batch(
            train, store, batch_rng, settings.augmentation,
            settings.batch_size, use_triplet,
        )
        net.calibrate(calib.images)
        # A frozen-backbone stage trains without online augmentation, so its
        # features are a fixed function of each row, computed once up front.
        features = None
        if not stage.flags.backbone_grad:
            log.info("%s: caching frozen-backbone features for %d copies",
                     stage.name, len(train))
            features = _build_feature_cache(net, train, np.arange(len(train)), store)
        for epoch in range(stage.epochs):
            lr = learning_rate(stage, epoch)
            sums: dict[str, float] = {}
            for b in range(batches):
                batch = compose_batch(
                    train, store, batch_rng, settings.augmentation,
                    settings.batch_size, use_triplet, load_images=features is None,
                )
                fmap = None if features is None else features[batch.rows]
                terms = train_step(net, batch, stage.flags, settings.weights,
                                   settings.triplet, fmap=fmap)
                if not np.isfinite(terms["total"]):
                    net.save(out_dir / "diverged.cdpm")
                    raise TrainingDiverged(stage.name, epoch, b, terms)
                for k, v in terms.items():
                    sums[k] = sums.get(k, 0.0) + v
                optimizer.step(stage.params, lr)
                net.zero_grad()
            row = {k: v / batches for k, v in sums.items()}
            row.update(stage=stage.name, epoch=epoch, lr=lr)
            result.log_rows.append(row)
            log.info(
                "%s epoch %d lr %.4g: total %.4f (f %.4f, c %.4f, r %.4f, g %.4f)",
                stage.name, epoch, lr, row["total"], row["loss_f"], row["loss_c"],
                row["loss_r"], row["loss_g"],
            )
        net.save(out_dir / f"{stage.name}.cdpm")
    net.save(result.final_checkpoint)
    write_train_log(out_dir / "train_log.csv", result.log_rows)
    return result
