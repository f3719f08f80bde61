"""End-to-end runs shared by the command line and the acceptance suite:
descriptor extraction, alignment quality scoring, and the four-way
ablation grid (baseline / +detection / +refinement / full).
"""
from __future__ import annotations

import contextlib
import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import alignment, data, evaluate
from .annotations import BoundaryAnnotation, body_rows
from .config import Config
from .model import WINDOW_HEIGHT, CdpmNetwork
from .training import run_training

log = logging.getLogger(__name__)

def _read_pixels(records) -> np.ndarray:
    return np.stack([data.read_person_image(r.path) for r in records])


def extract_descriptors(
    net: CdpmNetwork,
    index: data.DatasetIndex,
    split: str,
    selection: alignment.SelectionConfig,
) -> dict[str, np.ndarray]:
    """Descriptor per image of one split, in index order. The backbone reads
    each chunk as stored uint8 pixels, one chunk ahead of the heads and part
    branches (see `ToyBackbone.chunk_features`)."""
    records = index.split(split)
    if not records:
        raise data.DataError(f"split {split!r} is empty")
    out: dict[str, np.ndarray] = {}
    with contextlib.closing(net.backbone.chunk_features(records, _read_pixels)) as chunks:
        for chunk, fmap in chunks:
            descs = net.feature_descriptor(fmap, selection)
            for record, vec in zip(chunk, descs):
                out[record.image_id] = vec
    return out


# ---------------------------------------------------------------------------
# alignment quality


def _part_iou(lo, hi, bounds: np.ndarray) -> np.ndarray:
    """IoU of windows [lo, hi) with the parts of `bounds`, broadcast: (..., K)."""
    part_lo, part_hi = bounds[..., :-1], bounds[..., 1:]
    inter = alignment.overlaps(lo, hi, part_lo, part_hi)
    return inter / ((hi - lo) + (part_hi - part_lo) - inter)


@dataclass(frozen=True)
class AlignmentRow:
    image_id: str
    part: int
    window: int  # 1-based selected window (0 when uniform division is used)
    top: float
    iou: float
    uniform_iou: float


@dataclass(frozen=True)
class AlignmentReport:
    rows: list[AlignmentRow]
    mean_iou: float
    uniform_mean_iou: float


def alignment_report(
    net: CdpmNetwork,
    index: data.DatasetIndex,
    annotations: dict[str, BoundaryAnnotation],
    splits: tuple[str, ...] = ("query", "gallery"),
    selection: alignment.SelectionConfig | None = None,
) -> AlignmentReport:
    """Score selected windows against exact part intervals.

    Images without aligned ground truth are skipped. Each part's window is
    the one `descriptor` gathers: the detected window, or, when the network
    has no detection heads, the uniform-division window (window = 0 marks
    that case). `uniform_iou` scores the uniform part interval itself.
    """
    selection = selection or alignment.SelectionConfig()
    parts = net.cfg.parts
    uniform = alignment.part_bounds(0, alignment.MAP_HEIGHT, parts)
    records = [r for split in splits for r in index.split(split)]
    bodies = {r.image_id: body for r in records
              if (body := body_rows(annotations.get(r.image_id))) is not None}
    usable = [r for r in records if r.image_id in bodies]
    rows: list[AlignmentRow] = []
    with contextlib.closing(net.backbone.chunk_features(usable, _read_pixels)) as chunks:
        for chunk, fmap in chunks:
            tops = net.part_tops(fmap, selection).astype(np.float64)
            truth = alignment.part_bounds(*np.array([bodies[r.image_id] for r in chunk]).T,
                                          parts)
            iou = _part_iou(tops, tops + WINDOW_HEIGHT, truth)
            uniform_iou = _part_iou(uniform[:-1], uniform[1:], truth)
            for i, record in enumerate(chunk):
                for k in range(parts):
                    window = int(tops[i, k]) + 1 if net.heads is not None else 0
                    rows.append(AlignmentRow(record.image_id, k + 1, window, float(tops[i, k]),
                                             float(iou[i, k]), float(uniform_iou[i, k])))
    if not rows:
        raise data.DataError(
            f"no image offers aligned ground truth to score in {index.annotations_path}"
        )
    return AlignmentReport(
        rows=rows,
        mean_iou=float(np.mean([r.iou for r in rows])),
        uniform_mean_iou=float(np.mean([r.uniform_iou for r in rows])),
    )


def write_alignment_csv(path: str | Path, report: AlignmentReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["image_id", "part", "window", "top", "iou", "uniform_iou"])
        for r in report.rows:
            writer.writerow(
                [r.image_id, r.part, r.window, f"{r.top:g}", f"{r.iou:.6f}", f"{r.uniform_iou:.6f}"]
            )


# ---------------------------------------------------------------------------
# ablation grid

ABLATION_CONFIGS = (
    ("baseline", dict(with_refinement=False, with_alignment=False)),
    ("baseline_v", dict(with_refinement=False, with_alignment=True)),
    ("baseline_h", dict(with_refinement=True, with_alignment=False)),
    ("cdpm", dict(with_refinement=True, with_alignment=True)),
)


@dataclass(frozen=True)
class AblationRow:
    name: str
    rank1: float
    mean_ap: float
    mean_iou: float


def run_ablation(base_cfg: Config, out_dir: str | Path) -> list[AblationRow]:
    """Train and evaluate the four configurations on one dataset and seed.

    The dataset and its annotations load once, before any training; the
    four runs read the same cached `index.annotations`. A dataset whose
    query and gallery images offer no aligned ground truth is a data error.
    """
    out_dir = Path(out_dir)
    index = data.load_dataset(base_cfg.data_root)
    annotations = index.annotations
    scored = [r for split in ("query", "gallery") for r in index.split(split)]
    if all(body_rows(annotations.get(r.image_id)) is None for r in scored):
        raise data.DataError("no query or gallery image offers aligned ground truth to "
                             f"score in {index.annotations_path}")
    rows = []
    for name, flags in ABLATION_CONFIGS:
        cfg = replace(base_cfg, model=replace(base_cfg.model, with_mgf=False, **flags))
        run_dir = out_dir / name
        log.info("ablation %s: training into %s", name, run_dir)
        model_cfg = cfg.model_config(classes=index.class_count)
        net = run_training(index, model_cfg, cfg.train, run_dir).network
        queries = extract_descriptors(net, index, "query", cfg.selection)
        gallery = extract_descriptors(net, index, "gallery", cfg.selection)
        report = evaluate.evaluate_retrieval(queries, gallery, "single")
        align_rep = alignment_report(net, index, annotations, selection=cfg.selection)
        mean_iou = align_rep.mean_iou if cfg.model.with_alignment else align_rep.uniform_mean_iou
        rows.append(AblationRow(name, report.rank1, report.mean_ap, mean_iou))
        log.info(
            "ablation %s: rank1 %.4f mAP %.4f meanIoU %.4f",
            name, report.rank1, report.mean_ap, mean_iou,
        )
    return rows


def write_ablation_csv(path: str | Path, rows: list[AblationRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["config", "rank1", "mAP", "meanIoU"])
        for r in rows:
            writer.writerow(
                [r.name, f"{r.rank1:.6f}", f"{r.mean_ap:.6f}", f"{r.mean_iou:.6f}"]
            )
