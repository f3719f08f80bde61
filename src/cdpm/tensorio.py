"""Binary serialization for named tensors and descriptor dumps.

Tensor container layout (little-endian):
  magic "CDPM", format version u16, tensor count u32, then per tensor:
  name length u16 + UTF-8 name, rank u8, extents u32 each, payload f64
  row-major.

Descriptor dump layout: a sequence of records, each
  image id length u16 + UTF-8 id, vector length u32, payload f64.
"""
from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CDPM"
FORMAT_VERSION = 1
MAX_RANK = 4


class FormatError(ValueError):
    """Raised when a binary file does not match the expected layout."""


class _Reader:
    """Sequential reads from a file's bytes; every read is bounds-checked."""

    def __init__(self, path: str | Path, blob: bytes, offset: int = 0):
        self.path, self.blob, self.offset = path, blob, offset

    def remaining(self) -> int:
        return len(self.blob) - self.offset

    def _take(self, size: int, what: str) -> int:
        if size > self.remaining():
            raise FormatError(f"{self.path}: truncated {what} at byte {self.offset}")
        start = self.offset
        self.offset += size
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, self.blob, self._take(struct.calcsize(fmt), what))

    def text(self, size: int, what: str) -> str:
        start = self._take(size, what)
        try:
            return self.blob[start : self.offset].decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.path}: {what} at byte {start} is not UTF-8") from e

    def floats(self, count: int, what: str) -> np.ndarray:
        start = self._take(8 * count, what)
        return np.frombuffer(self.blob, dtype="<f8", count=count, offset=start).copy()


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors to `path` in a fixed iteration order."""
    chunks = [MAGIC, struct.pack("<HI", FORMAT_VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        if arr.ndim > MAX_RANK:
            raise FormatError(f"tensor {name!r} has rank {arr.ndim} > {MAX_RANK}")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a tensor container written by `save_tensors`."""
    blob = Path(path).read_bytes()
    if blob[:4] != MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    reader = _Reader(path, blob, len(MAGIC))
    version, count = reader.unpack("<HI", "header")
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported format version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = reader.unpack("<H", "tensor name length")
        name = reader.text(name_len, "tensor name")
        (rank,) = reader.unpack("<B", f"rank of tensor {name!r}")
        if rank > MAX_RANK:
            raise FormatError(f"{path}: tensor {name!r} has rank {rank}")
        shape = reader.unpack(f"<{rank}I", f"extents of tensor {name!r}")
        payload = reader.floats(math.prod(shape), f"payload of tensor {name!r}")
        out[name] = payload.reshape(shape)
    if reader.remaining():
        raise FormatError(f"{path}: {reader.remaining()} trailing bytes")
    return out


def write_descriptors(path: str | Path, descriptors: dict[str, np.ndarray]) -> None:
    """Write image descriptors as length-prefixed binary records."""
    chunks = []
    for image_id, vec in descriptors.items():
        vec = np.ascontiguousarray(vec, dtype=np.float64).ravel()
        encoded = image_id.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", vec.size))
        chunks.append(vec.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def read_descriptors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a descriptor dump written by `write_descriptors`, in file order."""
    reader = _Reader(path, Path(path).read_bytes())
    out: dict[str, np.ndarray] = {}
    while reader.remaining():
        (name_len,) = reader.unpack("<H", "record header")
        image_id = reader.text(name_len, "image id")
        (dim,) = reader.unpack("<I", f"vector length for {image_id!r}")
        out[image_id] = reader.floats(dim, f"payload for {image_id!r}")
    return out
