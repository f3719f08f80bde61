"""Training-time image augmentation.

Offline: a fixed number of translated copies per image (shifts drawn once
at plan time; `annotations.body_rows` shifts the body span with the
pixels). Online, per batch draw: horizontal flip and random erasing,
neither of which moves the vertical boundaries.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TRANSLATE_MAX_PX = 8
ERASE_AREA_RANGE = (0.02, 0.4)
ERASE_ASPECT_RANGE = (0.3, 3.33)
ERASE_ATTEMPTS = 50


@dataclass(frozen=True)
class AugmentationConfig:
    """Offline copy count and online augmentation probabilities."""

    translation_copies: int = 5  # dataset size multiplier, >= 1 (1 = originals only)
    flip_probability: float = 0.5
    erase_probability: float = 0.5

    def __post_init__(self):
        if self.translation_copies < 1:
            raise ValueError("translation_copies must be >= 1")
        for p in (self.flip_probability, self.erase_probability):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")


def translate(image: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift by (dy, dx) pixels with zero padding; dimensions unchanged."""
    out = np.zeros_like(image)
    h, w = image.shape[:2]
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    out[ys, xs] = image[ys_src, xs_src]
    return out


def flip_horizontal(image: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(image[:, ::-1])


def random_erase(image: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Overwrite one random rectangle with per-pixel uniform noise.

    Area fraction and aspect ratio are drawn from the standard ranges; if no
    rectangle fits after a bounded number of attempts the image is returned
    unchanged.
    """
    h, w = image.shape[:2]
    for _ in range(ERASE_ATTEMPTS):
        area = rng.uniform(*ERASE_AREA_RANGE) * h * w
        aspect = rng.uniform(*ERASE_ASPECT_RANGE)
        eh = int(round(np.sqrt(area * aspect)))
        ew = int(round(np.sqrt(area / aspect)))
        if eh < 1 or ew < 1 or eh > h or ew > w:
            continue
        y = int(rng.integers(0, h - eh + 1))
        x = int(rng.integers(0, w - ew + 1))
        out = image.copy()
        out[y : y + eh, x : x + ew] = rng.uniform(0.0, 1.0, (eh, ew, image.shape[2]))
        return out
    return image


def apply_online(
    image: np.ndarray, rng: np.random.Generator, cfg: AugmentationConfig
) -> np.ndarray:
    """Flip then erase, each with its configured probability."""
    if rng.random() < cfg.flip_probability:
        image = flip_horizontal(image)
    if rng.random() < cfg.erase_probability:
        image = random_erase(image, rng)
    return image


def offline_shifts(rng: np.random.Generator, copies: int) -> list[tuple[int, int]]:
    """The original plus `copies - 1` random (dy, dx) shifts of at most
    TRANSLATE_MAX_PX pixels."""
    shifts = [(0, 0)]
    for _ in range(copies - 1):
        dy = int(rng.integers(-TRANSLATE_MAX_PX, TRANSLATE_MAX_PX + 1))
        dx = int(rng.integers(-TRANSLATE_MAX_PX, TRANSLATE_MAX_PX + 1))
        shifts.append((dy, dx))
    return shifts
