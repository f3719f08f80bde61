"""Window geometry and label algebra for vertical part detection.

All row coordinates are real-valued rows of the one MAP_HEIGHT-row feature
map. Intervals are half-open [u, l). The stride-1 windows of height h have
tops 0 .. MAP_HEIGHT - h; window index r is 1-based and covers rows
[r - 1, r - 1 + h). Every function works on whole arrays of windows,
parts or images at once.
"""
from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class PartLayout:
    """K consecutive part intervals tiling [upper, lower) without gaps."""

    upper: float
    lower: float
    parts: int
    boundaries: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if not self.upper < self.lower:
            raise ValueError(f"need upper < lower, got [{self.upper}, {self.lower})")
        if self.parts < 1:
            raise ValueError("part count must be >= 1")
        # Shared boundary values make the tiling exact in floating point.
        step = (self.lower - self.upper) / self.parts
        bounds = tuple(self.upper + k * step for k in range(self.parts)) + (self.lower,)
        object.__setattr__(self, "boundaries", bounds)

    def interval(self, k: int) -> tuple[float, float]:
        """Half-open row interval of part k (1-based)."""
        if not 1 <= k <= self.parts:
            raise ValueError(f"part index {k} outside 1..{self.parts}")
        return self.boundaries[k - 1], self.boundaries[k]

    def centers(self) -> np.ndarray:
        """Center row of every part, (K,)."""
        b = np.array(self.boundaries)
        return (b[:-1] + b[1:]) / 2.0


def part_intervals(upper: float, lower: float, parts: int) -> PartLayout:
    """Uniform partition of [upper, lower) into `parts` equal intervals."""
    return PartLayout(upper=float(upper), lower=float(lower), parts=parts)


def uniform_layout(parts: int) -> PartLayout:
    """Partition of the whole map: part_intervals(0, MAP_HEIGHT, parts)."""
    if parts > MAP_HEIGHT:
        raise ValueError(f"cannot split {MAP_HEIGHT} rows into {parts} parts")
    return part_intervals(0.0, float(MAP_HEIGHT), parts)


def overlap_length(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Length of the intersection of two half-open intervals."""
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def _window_tops(height: int) -> np.ndarray:
    """Top rows of the stride-1 windows of `height` rows, as floats, (R,)."""
    return np.arange(MAP_HEIGHT - height + 1, dtype=np.float64)


def _overlaps(lo, hi, other_lo, other_hi) -> np.ndarray:
    """`overlap_length` of [lo, hi) and [other_lo, other_hi), broadcast."""
    return np.maximum(np.minimum(hi, other_hi) - np.maximum(lo, other_lo), 0.0)


def _overlap(layout: PartLayout, height: int) -> np.ndarray:
    """Rows each window of `height` rows (axis 0) shares with each part
    (axis 1), (R, K)."""
    tops = _window_tops(height)[:, None]
    b = np.array(layout.boundaries)
    return _overlaps(b[:-1], b[1:], tops, tops + height)


def soft_label_matrix(layout: PartLayout) -> np.ndarray:
    """Ground-truth probabilities of every detection window, (R, K + 1).

    Column k - 1 is the fraction of the window covered by part k; the last
    column is the uncovered remainder (background). Entries are in [0, 1]
    and each row sums to 1.
    """
    y = _overlap(layout, WINDOW_HEIGHT) / WINDOW_HEIGHT
    background = np.maximum(1.0 - y.sum(axis=1), 0.0)
    return np.concatenate([y, background[:, None]], axis=1)


@dataclass(frozen=True)
class OffsetTarget:
    """Regression targets for one image.

    offsets[r, k] is the distance from window r+1's center to part k+1's
    center, in window heights. mask[r, k] = 1 where |offset| < 1; only
    those entries contribute to the regression loss.
    """

    offsets: np.ndarray  # (R, K)
    mask: np.ndarray  # (R, K), {0.0, 1.0}


def offset_targets(layout: PartLayout) -> OffsetTarget:
    """Normalized center offsets of every detection window and the
    |offset| < 1 inclusion mask."""
    window_centers = _window_tops(WINDOW_HEIGHT) + WINDOW_HEIGHT / 2.0
    offsets = (layout.centers()[None, :] - window_centers[:, None]) / WINDOW_HEIGHT
    mask = (np.abs(offsets) < 1.0).astype(np.float64)
    return OffsetTarget(offsets=offsets, mask=mask)


def layout_tops(layout: PartLayout, height: int) -> np.ndarray:
    """Top row of each part's window of `height` rows, (K,): the window
    that overlaps the part most, the smaller top on a tie."""
    return np.argmax(_overlap(layout, height), axis=0)


def branch_heights(parts: int, granularities: tuple[int, ...]) -> tuple[int, ...]:
    """Window height of every part branch in descriptor order: the `parts`
    detected parts, then each granularity's parts, ascending."""
    return (WINDOW_HEIGHT,) * parts + tuple(
        granularity_height(g) for g in granularities for _ in range(g)
    )


def branch_tops(
    upper: float, lower: float, parts: int, granularities: tuple[int, ...]
) -> np.ndarray:
    """Window top of every part branch (`branch_heights` order) for a body
    spanning [upper, lower), (branches,); the span [0, MAP_HEIGHT) gives the
    uniform division."""
    groups = [(parts, WINDOW_HEIGHT)] + [(g, granularity_height(g)) for g in granularities]
    return np.concatenate([layout_tops(part_intervals(upper, lower, n), h) for n, h in groups])


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


def infer_granularity_layout(centers: np.ndarray, granularity: int) -> np.ndarray:
    """Window tops of a coarser granularity from K = 6 detected part
    centers per image: (B, 6) -> (B, granularity) integer rows.

    Part j of granularity g covers the base-part index range
    [(j-1) * 6/g, j * 6/g); its center is the mean of the base centers
    weighted by each base part's (possibly fractional) share of that range.
    Heights are fixed per granularity (24/g rows). Windows are rounded to
    integer rows and shifted minimally to fit inside the map.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity {granularity} not in {GRANULARITIES}")
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim != 2 or centers.shape[1] != NUM_PARTS:
        raise ValueError(f"expected (B, {NUM_PARTS}) centers, got shape {centers.shape}")
    if np.any(centers < 0) or np.any(centers >= MAP_HEIGHT):
        raise ValueError(f"centers must lie in [0, {MAP_HEIGHT})")
    height = granularity_height(granularity)
    span = NUM_PARTS / granularity
    j = np.arange(granularity)[:, None]
    base = np.arange(NUM_PARTS, dtype=np.float64)  # base part i spans [i, i + 1)
    weights = _overlaps(j * span, (j + 1) * span, base, base + 1.0)
    # detected centers are integer tops + 2 and the weights 1 or 0.5, so the
    # weighted sums are exact whatever order the product adds them in
    center = centers @ weights.T / weights.sum(axis=1)
    tops = np.floor(center - height / 2.0 + 0.5).astype(np.int64)
    return np.clip(tops, 0, MAP_HEIGHT - height)
