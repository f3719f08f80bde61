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


def _describe(net: CdpmNetwork, records, selection: alignment.SelectionConfig):
    """Descriptor rows of `records` (not empty), in record order, and the
    part tops (N, K) they read, from one `ToyBackbone.chunk_features` pass
    over their stored uint8 pixels. Each row is a view of its chunk's array."""
    descs, tops = [], []
    with contextlib.closing(net.backbone.chunk_features(records, _read_pixels)) as chunks:
        for _, fmap in chunks:
            tops.append(net.part_tops(fmap, selection))
            descs.extend(net.feature_descriptor(fmap, tops[-1]))
    return descs, np.concatenate(tops)


def _split_records(index: data.DatasetIndex, split: str) -> list[data.Record]:
    if not (records := index.split(split)):
        raise data.DataError(f"split {split!r} is empty")
    return records


def extract_descriptors(
    net: CdpmNetwork,
    index: data.DatasetIndex,
    split: str,
    selection: alignment.SelectionConfig,
) -> dict[str, np.ndarray]:
    """Descriptor per image of one split, by image id in index order (see
    `_describe`)."""
    records = _split_records(index, split)
    return dict(zip([r.image_id for r in records], _describe(net, records, selection)[0]))


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
    window: int  # the window's top + 1, or 0 when uniform division is used
    top: float
    iou: float
    uniform_iou: float


@dataclass(frozen=True)
class AlignmentReport:
    rows: list[AlignmentRow]
    mean_iou: float
    uniform_mean_iou: float


def _scored_records(index: data.DatasetIndex, annotations: dict[str, BoundaryAnnotation],
                    splits: tuple[str, ...]) -> tuple[list[data.Record], np.ndarray]:
    """The records of `splits` whose annotation gives body rows, in split
    order, and their body spans (N, 2); a data error when there are none."""
    scored = [(r, body) for split in splits for r in index.split(split)
              if (body := body_rows(annotations.get(r.image_id))) is not None]
    if not scored:
        raise data.DataError(f"no {' or '.join(splits)} image offers aligned ground truth "
                             f"to score in {index.annotations_path}")
    records, spans = zip(*scored)
    return list(records), np.array(spans)


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
    that case). `uniform_iou` scores the uniform part interval itself. The
    chunk loop only collects part tops; `_score_alignment` scores them once.
    """
    selection = selection or alignment.SelectionConfig()
    records, spans = _scored_records(index, annotations, splits)
    with contextlib.closing(net.backbone.chunk_features(records, _read_pixels)) as chunks:
        tops = np.concatenate([net.part_tops(fmap, selection) for _, fmap in chunks])
    return _score_alignment(net, records, spans, tops)


def _score_alignment(net: CdpmNetwork, records: list[data.Record], spans: np.ndarray,
                     tops: np.ndarray) -> AlignmentReport:
    """Score the part tops (N, K) of `records` against the exact part
    intervals of their body spans (N, 2); see `alignment_report`."""
    truth = alignment.part_bounds(spans[:, 0], spans[:, 1], net.cfg.parts)
    uniform = alignment.part_bounds(0, alignment.MAP_HEIGHT, net.cfg.parts)
    iou = _part_iou(tops, tops + WINDOW_HEIGHT, truth)
    uniform_iou = _part_iou(uniform[:-1], uniform[1:], truth)
    windows = tops + 1 if net.heads is not None else np.zeros_like(tops)
    rows = [AlignmentRow(record.image_id, k + 1, int(w), float(t), float(a), float(u))
            for record, *cols in zip(records, windows, tops, iou, uniform_iou)
            for k, (w, t, a, u) in enumerate(zip(*cols))]
    return AlignmentReport(rows, float(iou.mean()), float(uniform_iou.mean()))


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

    Before any training, the dataset and its annotations load once, and the
    query and gallery splits must be non-empty and offer aligned ground
    truth. Each trained network makes one pass over query + gallery; its
    descriptors are ranked and the scored images' part tops scored.
    """
    out_dir = Path(out_dir)
    index = data.load_dataset(base_cfg.data_root)
    query, gallery = _split_records(index, "query"), _split_records(index, "gallery")
    scored, spans = _scored_records(index, index.annotations, ("query", "gallery"))
    test = query + gallery
    ids, n = [r.image_id for r in test], len(query)
    is_scored = np.isin(ids, [r.image_id for r in scored])
    rows = []
    for name, flags in ABLATION_CONFIGS:
        cfg = replace(base_cfg, model=replace(base_cfg.model, with_mgf=False, **flags))
        run_dir = out_dir / name
        log.info("ablation %s: training into %s", name, run_dir)
        model_cfg = cfg.model_config(classes=index.class_count)
        net = run_training(index, model_cfg, cfg.train, run_dir).network
        descs, tops = _describe(net, test, cfg.selection)
        report = evaluate.evaluate_retrieval(dict(zip(ids[:n], descs)),
                                             dict(zip(ids[n:], descs[n:])), "single")
        mean_iou = _score_alignment(net, scored, spans, tops[is_scored]).mean_iou
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
