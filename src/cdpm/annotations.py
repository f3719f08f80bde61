"""Pedestrian boundary annotations and the body rows that supervise parts.

Annotation records live in a headerless CSV, one record per line:
  image_id,upper_px,lower_px,head_pixels,lower_pixels,source
Empty fields mean the value is absent. Pixel boundaries are in image
coordinates (image height 384); the feature map has 24 rows, so one
feature row spans 16 pixels. `body_rows` gives an image's body span in
feature rows, or None when the image trains and is scored with uniform
division.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .alignment import MAP_HEIGHT

IMAGE_HEIGHT = 384
PART_MISSING_THRESHOLD = 1280  # parsing pixels

SOURCES = ("automatic", "manual", "synthetic")


class AnnotationError(ValueError):
    """Raised for a malformed annotation record or file."""


@dataclass(frozen=True)
class BoundaryAnnotation:
    """Upper/lower pedestrian boundary plus parsing pixel counts for one image."""

    image_id: str
    upper_px: float | None
    lower_px: float | None
    head_pixels: int | None
    lower_pixels: int | None
    source: str = "automatic"

    def __post_init__(self):
        if self.upper_px is not None and self.lower_px is not None:
            if not 0 <= self.upper_px < self.lower_px <= IMAGE_HEIGHT:
                raise AnnotationError(
                    f"{self.image_id}: boundaries ({self.upper_px}, {self.lower_px}) "
                    f"must satisfy 0 <= U < V <= {IMAGE_HEIGHT}"
                )
        for count in (self.head_pixels, self.lower_pixels):
            if count is not None and count < 0:
                raise AnnotationError(f"{self.image_id}: negative pixel count {count}")
        if self.source not in SOURCES:
            raise AnnotationError(f"{self.image_id}: unknown source {self.source!r}")

    @property
    def has_boundaries(self) -> bool:
        return self.upper_px is not None and self.lower_px is not None


def detect_part_missing(ann: BoundaryAnnotation) -> bool:
    """True when the head or the lower body is too small to trust.

    Missing counts are treated as part-missing (conservative).
    """
    if ann.head_pixels is None or ann.lower_pixels is None:
        return True
    return min(ann.head_pixels, ann.lower_pixels) < PART_MISSING_THRESHOLD


def body_rows(ann: BoundaryAnnotation | None, dy: int = 0) -> tuple[float, float] | None:
    """The body span [upper, lower) in real-valued feature rows, with the
    boundaries shifted by `dy` pixels and clamped to the frame.

    None (uniform division, no detection targets) when the annotation is
    absent, lacks boundaries, fails the part-missing check, or the shift
    leaves no body inside the frame.
    """
    if ann is None or not ann.has_boundaries or detect_part_missing(ann):
        return None
    upper, lower = (min(max(v + dy, 0.0), IMAGE_HEIGHT) for v in (ann.upper_px, ann.lower_px))
    if not upper < lower:
        return None
    scale = IMAGE_HEIGHT / MAP_HEIGHT
    return upper / scale, lower / scale


def _parse_field(raw: str) -> float | None:
    raw = raw.strip()
    return float(raw) if raw else None


def _parse_record(fields: list[str]) -> BoundaryAnnotation:
    head = _parse_field(fields[3])
    lower = _parse_field(fields[4])
    return BoundaryAnnotation(
        image_id=fields[0].strip(),
        upper_px=_parse_field(fields[1]),
        lower_px=_parse_field(fields[2]),
        head_pixels=int(head) if head is not None else None,
        lower_pixels=int(lower) if lower is not None else None,
        source=fields[5].strip() or "automatic",
    )


def load_annotations(path: str | Path) -> dict[str, BoundaryAnnotation]:
    """Read an annotation CSV into a dict keyed by image id.

    Raises AnnotationError, naming the line, for a file that is not UTF-8 or
    a record that does not parse or validate.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise AnnotationError(f"{path}: not UTF-8: {e}") from e
    out: dict[str, BoundaryAnnotation] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 6:
            raise AnnotationError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        try:
            ann = _parse_record(fields)
        except (ValueError, OverflowError) as e:  # bad number, NaN or infinite count
            raise AnnotationError(f"{path}:{lineno}: {e}") from e
        out[ann.image_id] = ann
    return out


def save_annotations(path: str | Path, anns: dict[str, BoundaryAnnotation]) -> None:
    """Write annotations in the headerless CSV format."""

    def fmt(v) -> str:
        if v is None:
            return ""
        return str(int(v)) if float(v).is_integer() else str(v)

    lines = [
        ",".join(
            [
                ann.image_id,
                fmt(ann.upper_px),
                fmt(ann.lower_px),
                fmt(ann.head_pixels),
                fmt(ann.lower_pixels),
                ann.source,
            ]
        )
        for ann in anns.values()
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
