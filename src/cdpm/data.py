"""Dataset ingestion and the synthetic misaligned-pedestrian generator.

Directory layout: root/{train,query,gallery}/*.ppm plus root/annotations.csv.
Images are 8-bit binary PPM (P6), 384x128, named <identity>_c<camera>_<seq>.ppm.
Readers return the stored uint8 pixels; a pixel p stands for the intensity
p / PIXEL_MAX in [0, 1], which `to_unit_float` computes in float64.

The synthetic generator draws, per identity, a six-band vertical color
signature, and renders it at a sampled vertical offset and scale over
background noise. Band textures and a top-to-bottom luminance ramp are
shared across identities, so part positions are detectable from appearance
while identity stays encoded in the band colors; vertical placement is the
dominant nuisance, which makes part alignment measurable with exact ground
truth.
"""
from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .annotations import IMAGE_HEIGHT, BoundaryAnnotation, save_annotations

IMAGE_WIDTH = 128
#: The largest 8-bit pixel value, the PPM max value, and the divisor that
#: maps stored pixels to [0, 1].
PIXEL_MAX = 255
SPLITS = ("train", "query", "gallery")
JUNK_IDENTITIES = (0, -1)

log = logging.getLogger(__name__)


class DataError(ValueError):
    """Raised for malformed datasets or generator specs."""


class SpecError(DataError):
    """A synthetic generator parameter is out of range (a usage error)."""


# ---------------------------------------------------------------------------
# PPM image IO


def write_ppm(path: str | Path, image: np.ndarray) -> None:
    """Write an (H, W, 3) uint8 array as binary PPM."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3 or image.dtype != np.uint8:
        raise DataError(f"write_ppm expects (H,W,3) uint8, got {image.shape} {image.dtype}")
    h, w = image.shape[:2]
    header = f"P6\n{w} {h}\n{PIXEL_MAX}\n".encode("ascii")
    Path(path).write_bytes(header + image.tobytes())


#: header tokens are separated by whitespace and `#` comments to the end of a line
_SEP = rb"(?:\s|#[^\r\n]*[\r\n])+"
_PPM_HEADER = re.compile(rb"P6" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)" + _SEP + rb"(\d+)\s")


def read_ppm(path: str | Path) -> np.ndarray:
    """Read a binary PPM into an (H, W, 3) uint8 array."""
    blob = Path(path).read_bytes()
    m = _PPM_HEADER.match(blob)
    if not m:
        raise DataError(f"{path}: not a binary PPM")
    w, h, maxval = (int(g) for g in m.groups())
    if maxval != PIXEL_MAX:
        raise DataError(f"{path}: unsupported max value {maxval}")
    if len(blob) - m.end() < h * w * 3:
        raise DataError(f"{path}: truncated pixel data")
    pixels = np.frombuffer(blob, dtype=np.uint8, count=h * w * 3, offset=m.end())
    return pixels.reshape(h, w, 3).copy()


def read_person_image(path: str | Path) -> np.ndarray:
    """Read a PPM that must be IMAGE_HEIGHT x IMAGE_WIDTH, as (H, W, 3) uint8."""
    pixels = read_ppm(path)
    if pixels.shape[:2] != (IMAGE_HEIGHT, IMAGE_WIDTH):
        raise DataError(
            f"{path}: image is {pixels.shape[1]}x{pixels.shape[0]} pixels, "
            f"expected {IMAGE_WIDTH}x{IMAGE_HEIGHT}"
        )
    return pixels


def to_unit_float(pixels: np.ndarray) -> np.ndarray:
    """Stored uint8 pixels as float64 intensities in [0, 1]."""
    return pixels.astype(np.float64) / PIXEL_MAX


def load_image(path: str | Path) -> np.ndarray:
    """Read a person image (`read_person_image`) as float64 in [0, 1]."""
    return to_unit_float(read_person_image(path))


# ---------------------------------------------------------------------------
# dataset index

NAME_RE = re.compile(r"^(-?\d+)_c(\d+)_(\d+)$")


def parse_image_name(stem: str) -> tuple[int, int, int] | None:
    """Extract (identity, camera, sequence) from an image id, or None."""
    m = NAME_RE.match(stem)
    if not m:
        return None
    return int(m.group(1)), int(m.group(2)), int(m.group(3))


@dataclass(frozen=True)
class Record:
    image_id: str
    path: Path
    identity: int  # raw identity from the filename
    camera: int
    split: str
    label: int | None = None  # contiguous 1-based class, train split only


@dataclass
class DatasetIndex:
    root: Path
    records: dict[str, list[Record]] = field(default_factory=dict)
    class_count: int = 0
    skipped: int = 0

    def split(self, name: str) -> list[Record]:
        if name not in SPLITS:
            raise DataError(f"unknown split {name!r}")
        return self.records.get(name, [])

    @property
    def annotations_path(self) -> Path:
        return self.root / "annotations.csv"


def load_dataset(root: str | Path) -> DatasetIndex:
    """Scan a dataset directory into an index with contiguous train labels.

    Files with unparsable names are skipped (counted and logged). Train and
    test (query + gallery) identity sets must be disjoint; an empty train
    split is rejected.
    """
    root = Path(root)
    index = DatasetIndex(root=root)
    for split in SPLITS:
        folder = root / split
        if not folder.is_dir():
            index.records[split] = []
            continue
        records = []
        for path in sorted(folder.glob("*.ppm")):
            parsed = parse_image_name(path.stem)
            if parsed is None:
                index.skipped += 1
                continue
            identity, camera, _ = parsed
            records.append(
                Record(image_id=path.stem, path=path, identity=identity,
                       camera=camera, split=split)
            )
        index.records[split] = records
    if index.skipped:
        log.warning("skipped %d files with unparsable names", index.skipped)
    train = index.records["train"]
    if not train:
        raise DataError(f"{root}: empty train split")
    train_ids = sorted({r.identity for r in train})
    test_ids = {
        r.identity
        for s in ("query", "gallery")
        for r in index.records[s]
        if r.identity not in JUNK_IDENTITIES
    }
    overlap = set(train_ids) & test_ids
    if overlap:
        raise DataError(f"identities appear in both train and test splits: {sorted(overlap)}")
    label_of = {ident: i + 1 for i, ident in enumerate(train_ids)}
    index.records["train"] = [
        Record(r.image_id, r.path, r.identity, r.camera, r.split, label_of[r.identity])
        for r in train
    ]
    index.class_count = len(train_ids)
    return index


# ---------------------------------------------------------------------------
# synthetic generator

BANDS = 6
#: Identity-agnostic gradient strip along the body: brightness range and
#: pixel width. It gives every window a color-independent positional cue,
#: standing in for the body structure real pedestrians share.
TAPE_LO, TAPE_HI = 0.10, 0.95
TAPE_WIDTH = 16
#: Texture modulation depth within each band (band index sets the frequency).
PATTERN_DEPTH = 0.25


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of one generated split."""

    identities: int
    images_per_identity: int
    offset_range: tuple[float, float] = (0.0, 0.2)  # fraction of image height
    scale_range: tuple[float, float] = (0.80, 0.92)  # pedestrian height fraction
    noise_level: float = 0.3
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.offset_range
        slo, shi = self.scale_range
        if self.identities < 1 or self.images_per_identity < 1:
            raise SpecError("need at least one identity and one image per identity")
        if not 0.0 <= lo <= hi:
            raise SpecError(f"bad offset range ({lo}, {hi})")
        if not 0.0 < slo <= shi <= 1.0:
            raise SpecError(f"bad scale range ({slo}, {shi})")
        if lo + shi > 1.0 + 1e-12:
            raise SpecError(
                f"offset {lo} plus scale {shi} exceeds the frame; pedestrian "
                "cannot be placed inside the image"
            )
        if not 0.0 <= self.noise_level <= 1.0:
            raise SpecError(f"noise level {self.noise_level} outside [0, 1]")


def place_pedestrian(offset_frac: float, scale: float) -> tuple[int, int]:
    """Pixel boundaries for a pedestrian at a given top offset and scale."""
    u = int(np.floor(offset_frac * IMAGE_HEIGHT + 0.5))
    v = int(np.floor(u + scale * IMAGE_HEIGHT + 0.5))
    if u < 0 or v > IMAGE_HEIGHT or u >= v:
        raise DataError(f"placement ({offset_frac}, {scale}) leaves the frame")
    return u, v


def identity_colors(seed: int, identity: int) -> np.ndarray:
    """Deterministic six-band RGB signature for one identity."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0108, identity]))
    return rng.uniform(0.15, 0.70, (BANDS, 3))


def render_pedestrian(
    colors: np.ndarray,
    upper_px: int,
    lower_px: int,
    rng: np.random.Generator,
    noise_level: float,
) -> np.ndarray:
    """Render one image as float64 in [0, 1].

    Background is uniform noise. Pedestrian rows carry the band color of
    their position, modulated by a per-band cosine texture; a gradient
    strip on the body's left edge encodes vertical position independently
    of the identity's colors. The horizontal extent leaves noisy margins
    on both sides.
    """
    img = rng.uniform(0.0, noise_level, (IMAGE_HEIGHT, IMAGE_WIDTH, 3))
    x0 = IMAGE_WIDTH // 8 + int(rng.integers(-8, 9))
    x1 = IMAGE_WIDTH - IMAGE_WIDTH // 8 + int(rng.integers(-8, 9))
    height = lower_px - upper_px
    t = (np.arange(height) + 0.5) / height  # position within pedestrian, (0,1)
    band = np.minimum((t * BANDS).astype(np.int64), BANDS - 1)
    within = t * BANDS - band
    pattern = 1.0 - PATTERN_DEPTH + PATTERN_DEPTH * np.cos(
        2.0 * np.pi * (band + 1) * within
    )
    body = img[upper_px:lower_px, x0:x1]  # a view: writes land in img
    body[...] = (pattern[:, None] * colors[band])[:, None, :]
    # gradient strips on both edges, so horizontal flips keep the cue in place
    tape = TAPE_LO + (TAPE_HI - TAPE_LO) * t
    body[:, :TAPE_WIDTH] = tape[:, None, None]
    body[:, -TAPE_WIDTH:] = tape[:, None, None]
    body += rng.normal(0.0, 0.015, body.shape)
    return np.clip(img, 0.0, 1.0, out=img)


def to_uint8(img: np.ndarray) -> np.ndarray:
    """Round float intensities to stored pixels, clipping to [0, 1] first.
    `img` is used as scratch: it is left clipped, scaled and floored."""
    np.clip(img, 0.0, 1.0, out=img)
    img *= PIXEL_MAX
    img += 0.5
    return np.floor(img, out=img).astype(np.uint8)


def parsing_pixel_counts(
    upper_px: int, lower_px: int, width_px: int
) -> tuple[int, int]:
    """Head (top band) and lower-body (bottom two bands) pixel counts."""
    bounds = np.floor(
        upper_px + np.arange(BANDS + 1) * (lower_px - upper_px) / BANDS + 0.5
    ).astype(int)
    head = (bounds[1] - bounds[0]) * width_px
    lower = (bounds[BANDS] - bounds[BANDS - 2]) * width_px
    return int(head), int(lower)


def generate_synthetic(
    spec: SyntheticSpec,
    root: str | Path,
    split: str = "train",
    identity_start: int = 1,
) -> dict[str, BoundaryAnnotation]:
    """Render one split and return its exact boundary annotations.

    For split="test" the images are divided into a camera-1 query portion
    (first ceil(m / 3) images) and a camera-2 gallery portion.
    Annotations are returned keyed by image id; the caller merges splits
    and writes root/annotations.csv.
    """
    root = Path(root)
    if split == "train":
        folders = {"train": root / "train"}
    elif split == "test":
        folders = {"query": root / "query", "gallery": root / "gallery"}
    else:
        raise DataError(f"split must be 'train' or 'test', got {split!r}")
    for f in folders.values():
        f.mkdir(parents=True, exist_ok=True)
    n_query = (spec.images_per_identity + 2) // 3
    annotations: dict[str, BoundaryAnnotation] = {}
    for ident_idx in range(spec.identities):
        identity = identity_start + ident_idx
        colors = identity_colors(spec.seed, identity)
        for img_idx in range(spec.images_per_identity):
            rng = np.random.default_rng(
                np.random.SeedSequence([spec.seed, 0x1A6E, identity, img_idx])
            )
            scale = float(rng.uniform(*spec.scale_range))
            off_hi = min(spec.offset_range[1], 1.0 - scale)
            offset = float(rng.uniform(spec.offset_range[0], max(spec.offset_range[0], off_hi)))
            u_px, v_px = place_pedestrian(offset, scale)
            img = render_pedestrian(colors, u_px, v_px, rng, spec.noise_level)
            if split == "train":
                camera, folder = 1 + img_idx % 2, folders["train"]
            elif img_idx < n_query:
                camera, folder = 1, folders["query"]
            else:
                camera, folder = 2, folders["gallery"]
            image_id = f"{identity:04d}_c{camera}_{img_idx:04d}"
            write_ppm(folder / f"{image_id}.ppm", to_uint8(img))
            width = IMAGE_WIDTH - 2 * (IMAGE_WIDTH // 8)  # nominal extent
            head, lower = parsing_pixel_counts(u_px, v_px, width)
            annotations[image_id] = BoundaryAnnotation(
                image_id=image_id,
                upper_px=u_px,
                lower_px=v_px,
                head_pixels=head,
                lower_pixels=lower,
                source="synthetic",
            )
    return annotations


def generate_benchmark(
    out_root: str | Path,
    train_identities: int,
    images_per_identity: int,
    test_identities: int,
    test_images_per_identity: int,
    offset_range: tuple[float, float] = SyntheticSpec.offset_range,
    scale_range: tuple[float, float] = SyntheticSpec.scale_range,
    noise_level: float = SyntheticSpec.noise_level,
    seed: int = 0,
) -> DatasetIndex:
    """Full train/query/gallery benchmark with disjoint identity pools; the
    placement and noise defaults are `SyntheticSpec`'s."""
    out_root = Path(out_root)
    train_spec = SyntheticSpec(
        identities=train_identities,
        images_per_identity=images_per_identity,
        offset_range=offset_range,
        scale_range=scale_range,
        noise_level=noise_level,
        seed=seed,
    )
    test_spec = replace(
        train_spec, identities=test_identities, images_per_identity=test_images_per_identity
    )
    anns = generate_synthetic(train_spec, out_root, "train", identity_start=1)
    anns.update(
        generate_synthetic(
            test_spec, out_root, "test", identity_start=train_identities + 1
        )
    )
    save_annotations(out_root / "annotations.csv", anns)
    return load_dataset(out_root)
