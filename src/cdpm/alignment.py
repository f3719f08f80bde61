"""Window geometry and label algebra for vertical part detection.

All row coordinates are real-valued feature-map rows. Intervals are
half-open [u, l). Window indices are 1-based; the window with index r
covers rows [r - 1, r - 1 + h).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Feature-map height, window height, and part count used by the full model.
MAP_HEIGHT = 24
WINDOW_HEIGHT = 4
NUM_PARTS = 6

GRANULARITIES = (2, 3, 4)


def granularity_height(granularity: int) -> int:
    """Row height of every window of one granularity: the map split evenly."""
    return MAP_HEIGHT // granularity


@dataclass(frozen=True)
class SlidingWindow:
    """One fixed-height window over the feature map."""

    index: int  # 1-based
    top: float
    height: int

    @property
    def bottom(self) -> float:
        return self.top + self.height

    @property
    def center(self) -> float:
        return self.top + self.height / 2.0


@dataclass(frozen=True)
class WindowGrid:
    """All stride-1 windows of a fixed height over a map of `map_height` rows."""

    map_height: int
    window_height: int
    count: int = field(init=False)

    def __post_init__(self):
        if self.window_height > self.map_height:
            raise ValueError(
                f"window height {self.window_height} exceeds map height {self.map_height}"
            )
        object.__setattr__(self, "count", self.map_height - self.window_height + 1)

    def window(self, index: int) -> SlidingWindow:
        if not 1 <= index <= self.count:
            raise ValueError(f"window index {index} outside 1..{self.count}")
        return SlidingWindow(index=index, top=float(index - 1), height=self.window_height)

    def windows(self) -> list[SlidingWindow]:
        return [self.window(r) for r in range(1, self.count + 1)]

    def centers(self) -> np.ndarray:
        return np.arange(self.count) + self.window_height / 2.0


def enumerate_windows(map_height: int, window_height: int) -> WindowGrid:
    """Stride-1 grid of windows; count = map_height - window_height + 1."""
    return WindowGrid(map_height=map_height, window_height=window_height)


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

    def center(self, k: int) -> float:
        u, l = self.interval(k)
        return (u + l) / 2.0

    def centers(self) -> np.ndarray:
        return np.array([self.center(k) for k in range(1, self.parts + 1)])


def part_intervals(upper: float, lower: float, parts: int) -> PartLayout:
    """Uniform partition of [upper, lower) into `parts` equal intervals."""
    return PartLayout(upper=float(upper), lower=float(lower), parts=parts)


def uniform_layout(map_height: int, parts: int) -> PartLayout:
    """Partition of the whole map: part_intervals(0, map_height, parts)."""
    if parts > map_height:
        raise ValueError(f"cannot split {map_height} rows into {parts} parts")
    return part_intervals(0.0, float(map_height), parts)


def overlap_length(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Length of the intersection of two half-open intervals."""
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def soft_labels(window: SlidingWindow, layout: PartLayout) -> np.ndarray:
    """Per-window ground-truth probabilities over K parts plus background.

    Entry k (k < K) is the fraction of the window covered by part k+1;
    the last entry is the uncovered remainder. Entries are in [0, 1] and
    sum to 1.
    """
    k = layout.parts
    y = np.zeros(k + 1)
    span = (window.top, window.bottom)
    for j in range(1, k + 1):
        y[j - 1] = overlap_length(layout.interval(j), span) / window.height
    y[k] = max(0.0, 1.0 - y[:k].sum())
    return y


def soft_label_matrix(grid: WindowGrid, layout: PartLayout) -> np.ndarray:
    """Soft labels for every window of the grid, shape (R, K + 1)."""
    return np.stack([soft_labels(w, layout) for w in grid.windows()])


@dataclass(frozen=True)
class OffsetTarget:
    """Regression targets for one image.

    offsets[r, k] is the distance from window r+1's center to part k+1's
    center, in window heights. mask[r, k] = 1 where |offset| < 1; only
    those entries contribute to the regression loss.
    """

    offsets: np.ndarray  # (R, K)
    mask: np.ndarray  # (R, K), {0.0, 1.0}


def offset_targets(grid: WindowGrid, layout: PartLayout) -> OffsetTarget:
    """Normalized center offsets and the |offset| < 1 inclusion mask."""
    window_centers = grid.centers()
    part_centers = layout.centers()
    offsets = (part_centers[None, :] - window_centers[:, None]) / grid.window_height
    mask = (np.abs(offsets) < 1.0).astype(np.float64)
    return OffsetTarget(offsets=offsets, mask=mask)


@dataclass(frozen=True)
class SelectionConfig:
    """Classification-score threshold for window selection."""

    threshold: float = 0.60

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold {self.threshold} outside [0, 1]")


def select_window(
    scores: np.ndarray, offsets: np.ndarray, cfg: SelectionConfig
) -> int:
    """Pick the window for one part from per-window scores and predicted offsets.

    If at least two windows score above the threshold, the one with the
    smallest |offset| among them wins; otherwise the highest-scoring window
    wins. Ties go to the smaller window index. Returns a 1-based index.
    """
    scores = np.asarray(scores, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if scores.shape != offsets.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} and offsets {offsets.shape} must match")
    above = np.flatnonzero(scores > cfg.threshold)
    if above.size >= 2:
        best = above[np.argmin(np.abs(offsets[above]))]
    else:
        best = int(np.argmax(scores))
    return int(best) + 1


def best_overlap_window(grid: WindowGrid, interval: tuple[float, float]) -> int:
    """1-based index of the window with maximal overlap with `interval`.

    Ties resolve to the smaller index (argmax on exact overlap values).
    """
    overlaps = [
        overlap_length(interval, (w.top, w.bottom)) for w in grid.windows()
    ]
    return int(np.argmax(overlaps)) + 1


def layout_tops(layout: PartLayout, window_height: int) -> np.ndarray:
    """Top row of each part's window: its best-overlap window over the map, (K,)."""
    grid = enumerate_windows(MAP_HEIGHT, window_height)
    return np.array(
        [best_overlap_window(grid, layout.interval(k)) - 1 for k in range(1, layout.parts + 1)],
        dtype=np.int64,
    )


@dataclass(frozen=True)
class GranularityWindow:
    """A derived part window of a coarser granularity."""

    center: float
    height: int
    top: int  # integer row after rounding and clamping

    @property
    def bottom(self) -> int:
        return self.top + self.height


def infer_granularity_layout(
    selected_centers: np.ndarray, granularity: int, map_height: int = MAP_HEIGHT
) -> list[GranularityWindow]:
    """Derive coarser part windows from the K = 6 detected part centers.

    Part j of granularity g covers the base-part index range
    [(j-1) * 6/g, j * 6/g); its center is the mean of the base centers
    weighted by each base part's (possibly fractional) share of that range.
    Heights are fixed per granularity (24/g rows). Windows are rounded to
    integer rows and shifted minimally to fit inside the map.
    """
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity {granularity} not in {GRANULARITIES}")
    centers = np.asarray(selected_centers, dtype=np.float64)
    if centers.shape != (NUM_PARTS,):
        raise ValueError(f"expected {NUM_PARTS} centers, got shape {centers.shape}")
    if np.any(centers < 0) or np.any(centers >= map_height):
        raise ValueError("centers must lie in [0, map_height)")
    height = granularity_height(granularity)
    span = NUM_PARTS / granularity
    out = []
    for j in range(granularity):
        lo, hi = j * span, (j + 1) * span
        weights = np.array(
            [overlap_length((lo, hi), (i, i + 1.0)) for i in range(NUM_PARTS)]
        )
        center = float(weights @ centers / weights.sum())
        top = int(np.floor(center - height / 2.0 + 0.5))
        top = min(max(top, 0), map_height - height)
        out.append(GranularityWindow(center=center, height=height, top=top))
    return out
