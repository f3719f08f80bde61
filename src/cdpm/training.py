"""Stage-wise training: schedules, batch composition, and the update loop.

Three stages: the identity baseline trains first; the detection heads,
attention masks, and any extra branches train second with the baseline
frozen; everything fine-tunes jointly in the third stage. Epoch counts and
decay milestones scale together by one desk-scale factor. All sampling
comes from generators seeded from one master seed, so a run is a pure
function of (seed, config, dataset).
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import alignment, augment, data, losses
from .annotations import BoundaryAnnotation, body_rows, load_annotations
from .augment import AugmentationConfig
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
class Stage:
    name: str
    epochs: int
    base_lr: float
    decay_every: int | None  # lr multiplied by 0.1 every N epochs
    drop_at: int | None  # lr multiplied by 0.1 once, from this epoch on
    trainable: str  # baseline | new | all


def _scaled(epochs: int, scale: float) -> int:
    return max(1, int(round(epochs * scale)))


def stage_schedule(scale: float = 1.0) -> list[Stage]:
    """The three stages with epoch counts and milestones scaled by one factor."""
    return [
        Stage("stage1_baseline", _scaled(50, scale), 0.01, _scaled(20, scale), None,
              "baseline"),
        Stage("stage2_new_modules", _scaled(40, scale), 0.01, _scaled(15, scale), None,
              "new"),
        Stage("stage3_end2end", _scaled(30, scale), 0.001, None, _scaled(20, scale),
              "all"),
    ]


def learning_rate(stage: Stage, epoch: int) -> float:
    """Piecewise-constant rate as a pure function of the epoch index."""
    if not 0 <= epoch < stage.epochs:
        raise ValueError(f"epoch {epoch} outside stage {stage.name}")
    if stage.decay_every is not None:
        return stage.base_lr * 0.1 ** (epoch // stage.decay_every)
    if stage.drop_at is not None and epoch >= stage.drop_at:
        return stage.base_lr * 0.1
    return stage.base_lr


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
# training items (image + supervision, one per offline copy)


@dataclass(frozen=True)
class TrainItem:
    record: data.Record
    shift: tuple[int, int]
    aligned: bool
    tops: np.ndarray  # (branches,) int window tops, one per part branch
    soft: np.ndarray | None  # (R, K+1)
    offsets: np.ndarray | None  # (R, K)
    mask: np.ndarray | None  # (R, K)


def build_train_items(
    index: data.DatasetIndex,
    annotations: dict[str, BoundaryAnnotation],
    model_cfg: ModelConfig,
    aug: AugmentationConfig,
    rng: np.random.Generator,
) -> list[TrainItem]:
    """Expand the train split into offline copies with per-copy supervision.

    Aligned supervision (ground-truth part windows plus detection targets)
    applies only when the model runs with alignment and `body_rows` finds a
    body in the shifted copy; otherwise the copy trains with uniform part
    locations and is excluded from the detection losses.
    """
    items: list[TrainItem] = []
    for record in index.split("train"):
        ann = annotations.get(record.image_id)
        for dy, dx in augment.offline_shifts(rng, aug.translation_copies):
            body = body_rows(ann, dy) if model_cfg.with_alignment else None
            upper, lower = body or (0, alignment.MAP_HEIGHT)
            soft = offsets = mask = None
            if body is not None:
                bounds = alignment.part_bounds(upper, lower, model_cfg.parts)
                soft = alignment.soft_label_matrix(bounds)
                offsets, mask = alignment.offset_targets(bounds)
            tops = alignment.branch_tops(upper, lower, model_cfg.parts,
                                         model_cfg.granularities)
            items.append(TrainItem(record, (dy, dx), body is not None, tops, soft,
                                   offsets, mask))
    return items


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
    images: np.ndarray | None  # (B, 384, 128, 3); None when features are cached
    labels: np.ndarray  # (B,) 1-based train classes
    tops: np.ndarray  # (B, branches): column k is net.part_branches[k]'s top
    aligned_idx: np.ndarray  # batch positions with detection targets
    soft: np.ndarray | None  # (Na, R, K+1)
    offsets: np.ndarray | None  # (Na, R, K)
    mask: np.ndarray | None  # (Na, R, K)
    item_indices: np.ndarray | None = None  # positions in the item list
    triplet_composed: bool = False  # exactly P identities x A images


def load_item_image(item: TrainItem, store: ImageStore) -> np.ndarray:
    """The item's uint8 pixels, translated by its offline shift."""
    img = store.load(item.record.path)
    dy, dx = item.shift
    if (dy, dx) != (0, 0):
        img = augment.translate(img, dy, dx)
    return img


def _assemble(
    chosen: list[TrainItem],
    store: ImageStore,
    rng: np.random.Generator,
    aug: AugmentationConfig,
    indices: np.ndarray,
    triplet_composed: bool = False,
    load_images: bool = True,
) -> Batch:
    images = None
    if load_images:
        # random erasing writes float noise, so augmented batches are float
        images = [
            augment.apply_online(data.to_unit_float(load_item_image(item, store)), rng, aug)
            for item in chosen
        ]
    labels = np.array([item.record.label for item in chosen], dtype=np.int64)
    aligned_idx = np.array(
        [i for i, item in enumerate(chosen) if item.aligned], dtype=np.int64
    )
    soft = offsets = mask = None
    if aligned_idx.size:
        soft = np.stack([chosen[i].soft for i in aligned_idx])
        offsets = np.stack([chosen[i].offsets for i in aligned_idx])
        mask = np.stack([chosen[i].mask for i in aligned_idx])
    return Batch(
        images=np.stack(images) if images is not None else None,
        labels=labels,
        tops=np.stack([item.tops for item in chosen]),
        aligned_idx=aligned_idx,
        soft=soft,
        offsets=offsets,
        mask=mask,
        item_indices=np.asarray(indices, dtype=np.int64),
        triplet_composed=triplet_composed,
    )


def compose_batch(
    items: list[TrainItem],
    store: ImageStore,
    rng: np.random.Generator,
    aug: AugmentationConfig,
    batch_size: int,
    triplet: TripletConfig | None = None,
    load_images: bool = True,
) -> Batch:
    """Draw one batch: uniform sampling, or P identities x A images."""
    if not items:
        raise data.DataError("cannot compose a batch from an empty dataset")
    if triplet is None:
        idx = rng.choice(len(items), size=batch_size, replace=len(items) < batch_size)
        return _assemble(
            [items[i] for i in idx], store, rng, aug, idx, load_images=load_images
        )
    by_label: dict[int, list[int]] = {}
    for i, item in enumerate(items):
        by_label.setdefault(item.record.label, []).append(i)
    label_pool = sorted(by_label)
    if len(label_pool) < triplet.identities_per_batch:
        raise data.DataError(
            f"triplet batches need {triplet.identities_per_batch} identities, "
            f"dataset has {len(label_pool)}"
        )
    labels = rng.choice(label_pool, size=triplet.identities_per_batch, replace=False)
    chosen_idx: list[int] = []
    for lbl in labels:
        pool = by_label[int(lbl)]
        take = rng.choice(
            pool, size=triplet.images_per_identity, replace=len(pool) < triplet.images_per_identity
        )
        chosen_idx.extend(int(i) for i in take)
    return _assemble(
        [items[i] for i in chosen_idx], store, rng, aug, np.array(chosen_idx),
        triplet_composed=True, load_images=load_images,
    )


# ---------------------------------------------------------------------------
# one optimization step


@dataclass(frozen=True)
class StepFlags:
    """Which paths are active in a given stage."""

    refinement: bool  # attention masks multiply the part windows
    detection: bool  # window classification + regression losses
    mgf: bool  # granularity branches and holistic triplet term
    backbone_grad: bool  # propagate into and accumulate backbone gradients


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
    step that trains the backbone computes them from `batch.images`.
    """
    if (fmap is not None) == flags.backbone_grad:
        raise ValueError("fmap must be given exactly when the backbone is frozen")
    if flags.backbone_grad:
        fmap, bb_acts = net.backbone_forward(batch.images)
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
    if flags.detection and net.heads is not None and batch.aligned_idx.size:
        sub = fmap[batch.aligned_idx]
        scores, offsets, dctx = net.detection_forward(sub)
        loss_c, gscores = losses.window_classification_loss_with_grad(scores, batch.soft)
        goffsets = np.zeros_like(offsets)
        for k in range(net.cfg.parts):
            lr_k, gk = losses.regression_loss_with_grad(
                offsets[:, :, k], batch.offsets[:, :, k], batch.mask[:, :, k]
            )
            loss_r += lr_k
            goffsets[:, :, k] = gk
        gsub = net.detection_backward(
            dctx, weights.lambda1 * gscores, weights.lambda2 * goffsets
        )
        if gfmap is not None:
            gfmap[batch.aligned_idx] += gsub
    terms["loss_c"] = loss_c
    terms["loss_r"] = loss_r

    loss_g = 0.0
    if flags.mgf and net.holistic is not None and batch.triplet_composed:
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


#: largest item count for which frozen-backbone features are precomputed;
#: above it each frozen-backbone batch computes the same features itself
FEATURE_CACHE_LIMIT = 6000


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
    checkpoints: dict[str, Path]
    final_checkpoint: Path
    log_rows: list[dict] = field(default_factory=list)


def _stage_flags(stage: Stage, cfg: ModelConfig) -> StepFlags:
    if stage.trainable == "baseline":
        return StepFlags(refinement=False, detection=False, mgf=False,
                         backbone_grad=True)
    return StepFlags(
        refinement=cfg.with_refinement,
        detection=cfg.with_alignment,
        mgf=cfg.with_mgf,
        backbone_grad=stage.trainable == "all",
    )


def _trainable(net: CdpmNetwork, stage: Stage):
    if stage.trainable == "baseline":
        return net.baseline_parameters()
    if stage.trainable == "new":
        return net.new_module_parameters()
    return net.parameters()


def _build_feature_cache(
    net: CdpmNetwork, items: list[TrainItem], store: ImageStore, batch_size: int
) -> np.ndarray:
    """Frozen-backbone feature maps for every item, without online
    augmentation, so the backbone reads each item's uint8 pixels."""
    maps = []
    for start in range(0, len(items), batch_size):
        chunk = items[start : start + batch_size]
        images = np.stack([load_item_image(item, store) for item in chunk])
        maps.append(net.features(images))
    return np.concatenate(maps, axis=0)


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
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    annotations = (
        load_annotations(index.annotations_path)
        if index.annotations_path.exists()
        else {}
    )
    master = np.random.SeedSequence(settings.seed)
    init_seq, shift_seq, batch_seq = master.spawn(3)
    net = CdpmNetwork(model_cfg, np.random.default_rng(init_seq))
    items = build_train_items(
        index, annotations, model_cfg, settings.augmentation,
        np.random.default_rng(shift_seq),
    )
    store = ImageStore()
    optimizer = SGDMomentum(settings.momentum)
    batch_rng = np.random.default_rng(batch_seq)
    result = TrainResult(network=net, checkpoints={}, final_checkpoint=out_dir / "final.cdpm")
    for stage in stage_schedule(settings.epoch_scale):
        params = _trainable(net, stage)
        if not params:
            log.info("skipping %s: no trainable parameters in this configuration",
                     stage.name)
            continue
        flags = _stage_flags(stage, model_cfg)
        use_triplet = settings.triplet if (flags.mgf and net.holistic) else None
        batches = max(1, len(items) // settings.batch_size)
        calib = compose_batch(
            items, store, batch_rng, settings.augmentation,
            settings.batch_size, use_triplet,
        )
        net.calibrate(calib.images)
        # A frozen-backbone stage trains without online augmentation, so its
        # features are a fixed function of each item: precomputed once when
        # the items fit under the limit, else computed per batch. The limit
        # only decides memory; the features are the same bits either way.
        frozen = not flags.backbone_grad
        feature_cache = None
        if frozen and len(items) <= FEATURE_CACHE_LIMIT:
            log.info("%s: caching frozen-backbone features for %d items",
                     stage.name, len(items))
            feature_cache = _build_feature_cache(net, items, store, settings.batch_size)
        for epoch in range(stage.epochs):
            lr = learning_rate(stage, epoch)
            sums: dict[str, float] = {}
            for b in range(batches):
                batch = compose_batch(
                    items, store, batch_rng, settings.augmentation,
                    settings.batch_size, use_triplet, load_images=not frozen,
                )
                fmap = None
                if feature_cache is not None:
                    fmap = feature_cache[batch.item_indices]
                elif frozen:
                    chosen = [items[i] for i in batch.item_indices]
                    fmap = _build_feature_cache(net, chosen, store, len(chosen))
                terms = train_step(net, batch, flags, settings.weights,
                                   settings.triplet, fmap=fmap)
                if not np.isfinite(terms["total"]):
                    net.save(out_dir / "diverged.cdpm")
                    raise TrainingDiverged(stage.name, epoch, b, terms)
                for k, v in terms.items():
                    sums[k] = sums.get(k, 0.0) + v
                optimizer.step(params, lr)
                net.zero_grad()
            row = {k: v / batches for k, v in sums.items()}
            row.update(stage=stage.name, epoch=epoch, lr=lr)
            result.log_rows.append(row)
            log.info(
                "%s epoch %d lr %.4g: total %.4f (f %.4f, c %.4f, r %.4f, g %.4f)",
                stage.name, epoch, lr, row["total"], row["loss_f"], row["loss_c"],
                row["loss_r"], row["loss_g"],
            )
        path = out_dir / f"{stage.name}.cdpm"
        net.save(path)
        result.checkpoints[stage.name] = path
    net.save(result.final_checkpoint)
    write_train_log(out_dir / "train_log.csv", result.log_rows)
    return result
