"""End-to-end runs shared by the command line and the acceptance suite:
descriptor extraction, alignment quality scoring, and the four-way
ablation grid (baseline / +detection / +refinement / full).
"""
from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import alignment, data, evaluate
from .annotations import BoundaryAnnotation, load_annotations, supervision_mode
from .config import Config
from .model import MAP_HEIGHT, WINDOW_HEIGHT, CdpmNetwork
from .training import run_training

log = logging.getLogger(__name__)

EXTRACT_BATCH = 24


def _batched(records, size):
    for i in range(0, len(records), size):
        yield records[i : i + size]


def extract_descriptors(
    net: CdpmNetwork,
    index: data.DatasetIndex,
    split: str,
    selection: alignment.SelectionConfig,
) -> dict[str, np.ndarray]:
    """Descriptor per image of one split, in index order."""
    records = index.split(split)
    if not records:
        raise data.DataError(f"split {split!r} is empty")
    out: dict[str, np.ndarray] = {}
    for chunk in _batched(records, EXTRACT_BATCH):
        images = np.stack([data.load_image(r.path) for r in chunk])
        descs = net.descriptor(images, selection)
        for record, vec in zip(chunk, descs):
            out[record.image_id] = vec
    return out


# ---------------------------------------------------------------------------
# alignment quality


def interval_iou(a: tuple[float, float], b: tuple[float, float]) -> float:
    inter = alignment.overlap_length(a, b)
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union > 0 else 0.0


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
    uniform = alignment.uniform_layout(MAP_HEIGHT, net.cfg.parts)
    records = [r for split in splits for r in index.split(split)]
    rows: list[AlignmentRow] = []
    for chunk in _batched(records, EXTRACT_BATCH):
        usable = []
        for r in chunk:
            ann = annotations.get(r.image_id)
            mode = supervision_mode(ann) if ann is not None else None
            if mode is not None and mode.is_aligned:
                usable.append((r, mode))
        if not usable:
            continue
        images = np.stack([data.load_image(r.path) for r, _ in usable])
        tops = net.part_tops(net.features(images), selection)
        for i, (record, mode) in enumerate(usable):
            layout = alignment.part_intervals(mode.upper, mode.lower, net.cfg.parts)
            for k in range(1, net.cfg.parts + 1):
                truth = layout.interval(k)
                uniform_iou = interval_iou(uniform.interval(k), truth)
                top = float(tops[i, k - 1])
                window = int(tops[i, k - 1]) + 1 if net.heads is not None else 0
                iou = interval_iou((top, top + WINDOW_HEIGHT), truth)
                rows.append(
                    AlignmentRow(record.image_id, k, window, top, iou, uniform_iou)
                )
    if not rows:
        raise data.DataError("no image offers aligned ground truth to score")
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
# single training run from a Config


def train_from_config(cfg: Config, out_dir: str | Path):
    index = data.load_dataset(cfg.data_root)
    model_cfg = cfg.model_config(classes=index.class_count)
    return index, run_training(index, model_cfg, cfg.train_settings(), out_dir)


# ---------------------------------------------------------------------------
# ablation grid

ABLATION_CONFIGS = (
    ("baseline", dict(refinement=False, alignment=False)),
    ("baseline_v", dict(refinement=False, alignment=True)),
    ("baseline_h", dict(refinement=True, alignment=False)),
    ("cdpm", dict(refinement=True, alignment=True)),
)


@dataclass(frozen=True)
class AblationRow:
    name: str
    rank1: float
    mean_ap: float
    mean_iou: float


def run_ablation(base_cfg: Config, out_dir: str | Path) -> list[AblationRow]:
    """Train and evaluate the four configurations on one dataset and seed."""
    out_dir = Path(out_dir)
    rows = []
    for name, flags in ABLATION_CONFIGS:
        cfg = replace(base_cfg, mgf=False, **flags)
        run_dir = out_dir / name
        log.info("ablation %s: training into %s", name, run_dir)
        index, result = train_from_config(cfg, run_dir)
        net = result.network
        selection = alignment.SelectionConfig(cfg.selection_threshold)
        queries = extract_descriptors(net, index, "query", selection)
        gallery = extract_descriptors(net, index, "gallery", selection)
        report = evaluate.evaluate_retrieval(queries, gallery, "single")
        annotations = load_annotations(index.annotations_path)
        align_rep = alignment_report(net, index, annotations, selection=selection)
        mean_iou = align_rep.mean_iou if cfg.alignment else align_rep.uniform_mean_iou
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
