"""Window geometry and label algebra for vertical part detection.

All row coordinates are real-valued rows of the one MAP_HEIGHT-row feature
map. Intervals are half-open [u, l). The stride-1 windows of height h have
tops 0 .. MAP_HEIGHT - h; window index r is 1-based and covers rows
[r - 1, r - 1 + h). A part layout is one float array of K + 1 boundaries,
(..., K + 1), for one body or a batch of bodies: part k spans
[b[..., k - 1], b[..., k]). Every function works on whole arrays of
windows, parts or images at once.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Feature-map height, window height, and part count used by the full model.
MAP_HEIGHT = 24
WINDOW_HEIGHT = 4
NUM_PARTS = 6

#: Number of stride-1 detection windows over the map.
WINDOW_COUNT = MAP_HEIGHT - WINDOW_HEIGHT + 1

GRANULARITIES = (2, 3, 4)


def granularity_height(granularity: int) -> int:
    """Row height of every window of one granularity: the map split evenly."""
    return MAP_HEIGHT // granularity


def part_bounds(upper, lower, parts: int) -> np.ndarray:
    """Boundaries of `parts` equal parts tiling [upper, lower), (..., parts + 1);
    the span [0, MAP_HEIGHT) gives the uniform division."""
    upper = np.asarray(upper, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    if parts < 1:
        raise ValueError("part count must be >= 1")
    if not np.all(upper < lower):
        raise ValueError(f"need upper < lower, got [{upper}, {lower})")
    step = (lower - upper) / parts
    bounds = upper[..., None] + np.arange(parts + 1) * step[..., None]
    # Neighbouring parts share one boundary value and the last is `lower`
    # itself, so the tiling is exact in floating point.
    bounds[..., -1] = lower
    return bounds


def overlaps(lo, hi, other_lo, other_hi) -> np.ndarray:
    """Length of the intersection of [lo, hi) and [other_lo, other_hi),
    broadcast."""
    return np.maximum(np.minimum(hi, other_hi) - np.maximum(lo, other_lo), 0.0)


def _overlap(bounds: np.ndarray) -> np.ndarray:
    """Rows each detection window shares with each part, (..., R, K)."""
    tops = np.arange(WINDOW_COUNT, dtype=np.float64)[:, None]
    return overlaps(bounds[..., None, :-1], bounds[..., None, 1:], tops, tops + WINDOW_HEIGHT)


def soft_label_matrix(bounds: np.ndarray) -> np.ndarray:
    """Ground-truth probabilities of every detection window, (..., R, K + 1).

    Column k - 1 is the fraction of the window covered by part k; the last
    column is the uncovered remainder (background). Entries are in [0, 1]
    and each row sums to 1.
    """
    y = _overlap(bounds) / WINDOW_HEIGHT
    background = np.maximum(1.0 - y.sum(axis=-1, keepdims=True), 0.0)
    return np.concatenate([y, background], axis=-1)


def offset_targets(bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Regression targets and their mask, each (..., R, K).

    offsets[..., r, k] is the distance from window r+1's center to part
    k+1's center, in window heights. The mask is 1 where |offset| < 1; only
    those entries contribute to the regression loss.
    """
    window_centers = np.arange(WINDOW_COUNT) + WINDOW_HEIGHT / 2.0
    centers = (bounds[..., :-1] + bounds[..., 1:]) / 2.0
    offsets = (centers[..., None, :] - window_centers[:, None]) / WINDOW_HEIGHT
    return offsets, (np.abs(offsets) < 1.0).astype(np.float64)


def layout_tops(bounds: np.ndarray) -> np.ndarray:
    """Top row of each part's detection window, (..., K): the window that
    overlaps the part most, the smaller top on a tie."""
    return np.argmax(_overlap(bounds), axis=-2)


def branch_heights(parts: int, granularities: tuple[int, ...]) -> tuple[int, ...]:
    """Window height of every part branch in descriptor order: the `parts`
    detected parts, then each granularity's parts, ascending."""
    return (WINDOW_HEIGHT,) * parts + tuple(
        granularity_height(g) for g in granularities for _ in range(g)
    )


def branch_tops(part_tops, granularities: tuple[int, ...]) -> np.ndarray:
    """Window top of every part branch (`branch_heights` order) from the K
    part windows' tops, (..., K) -> (..., branches): the part tops, then
    each granularity's tops placed by `infer_granularity_layout`. Training,
    calibration and descriptors all place their windows by this one rule."""
    part_tops = np.asarray(part_tops)
    rows = part_tops.reshape(-1, part_tops.shape[-1])
    tops = np.concatenate(
        [rows, *(infer_granularity_layout(rows, g) for g in granularities)], axis=1
    )
    return tops.reshape(part_tops.shape[:-1] + tops.shape[-1:])


@dataclass(frozen=True)
class SelectionConfig:
    """Classification-score threshold for window selection."""

    threshold: float = 0.60

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold {self.threshold} outside [0, 1]")


def select_window(
    scores: np.ndarray, offsets: np.ndarray, cfg: SelectionConfig
) -> np.ndarray:
    """Pick one window along the last axis of per-window scores and
    predicted offsets, of any matching shape.

    If at least two windows score above the threshold, the one with the
    smallest |offset| among them wins; otherwise the highest-scoring window
    wins. Ties go to the smaller window index. Returns 1-based indices of
    shape scores.shape[:-1].
    """
    scores = np.asarray(scores, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if scores.shape != offsets.shape or scores.ndim < 1:
        raise ValueError(f"scores {scores.shape} and offsets {offsets.shape} must match")
    above = scores > cfg.threshold
    nearest = np.argmin(np.where(above, np.abs(offsets), np.inf), axis=-1)
    best = np.where(above.sum(axis=-1) >= 2, nearest, np.argmax(scores, axis=-1))
    return best + 1


def infer_granularity_layout(part_tops: np.ndarray, granularity: int) -> np.ndarray:
    """Window tops of a coarser granularity from the K = 6 part windows'
    tops per image: (B, 6) -> (B, granularity) integer rows.

    Each part window's center is its top plus WINDOW_HEIGHT / 2. Part j of
    granularity g covers the base-part index range [(j-1) * 6/g, j * 6/g);
    its center is the mean of the base centers weighted by each base part's
    (possibly fractional) share of that range. Heights are fixed per
    granularity (24/g rows). Windows are rounded to integer rows and
    shifted minimally to fit inside the map.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity {granularity} not in {GRANULARITIES}")
    part_tops = np.asarray(part_tops, dtype=np.float64)
    if part_tops.ndim != 2 or part_tops.shape[1] != NUM_PARTS:
        raise ValueError(f"expected (B, {NUM_PARTS}) part tops, got shape {part_tops.shape}")
    if np.any(part_tops < 0) or np.any(part_tops >= WINDOW_COUNT):
        raise ValueError(f"part tops must lie in [0, {WINDOW_COUNT})")
    centers = part_tops + WINDOW_HEIGHT / 2.0
    height = granularity_height(granularity)
    span = NUM_PARTS / granularity
    j = np.arange(granularity)[:, None]
    base = np.arange(NUM_PARTS, dtype=np.float64)  # base part i spans [i, i + 1)
    weights = overlaps(j * span, (j + 1) * span, base, base + 1.0)
    # the centers are integer tops + 2 and the weights 1 or 0.5, so the
    # weighted sums are exact whatever order the product adds them in
    center = centers @ weights.T / weights.sum(axis=1)
    tops = np.floor(center - height / 2.0 + 0.5).astype(np.int64)
    return np.clip(tops, 0, MAP_HEIGHT - height)
