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
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CDPM"
FORMAT_VERSION = 1
MAX_RANK = 4


class FormatError(ValueError):
    """Raised when a binary file does not match the expected layout."""


class _Reader:
    """Sequential reads from an open binary file; every read is checked
    against the bytes left before anything is read or allocated, so no
    file-sized buffer is ever built."""

    def __init__(self, path: str | Path, fh):
        self.path, self.fh = path, fh
        self.offset, self.size = fh.tell(), os.fstat(fh.fileno()).st_size

    def remaining(self) -> int:
        return self.size - self.offset

    def _take(self, size: int, what: str) -> int:
        if size > self.remaining():
            raise FormatError(f"{self.path}: truncated {what} at byte {self.offset}")
        start = self.offset
        self.offset += size
        return start

    def unpack(self, fmt: str, what: str) -> tuple:
        size = struct.calcsize(fmt)
        self._take(size, what)
        return struct.unpack(fmt, self.fh.read(size))

    def text(self, size: int, what: str) -> str:
        start = self._take(size, what)
        try:
            return self.fh.read(size).decode("utf-8")
        except UnicodeDecodeError as e:
            raise FormatError(f"{self.path}: {what} at byte {start} is not UTF-8") from e

    def floats(self, count: int, what: str) -> np.ndarray:
        self._take(8 * count, what)
        out = np.empty(count, dtype="<f8")
        self.fh.readinto(out)
        return out


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors to `path` in a fixed iteration order."""
    chunks = [MAGIC, struct.pack("<HI", FORMAT_VERSION, len(tensors))]
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)  # keeps 0-d tensors 0-d
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
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        reader = _Reader(path, fh)
        version, count = reader.unpack("<HI", "header")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
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
    out: dict[str, np.ndarray] = {}
    with open(path, "rb") as fh:
        reader = _Reader(path, fh)
        while reader.remaining():
            (name_len,) = reader.unpack("<H", "record header")
            image_id = reader.text(name_len, "image id")
            (dim,) = reader.unpack("<I", f"vector length for {image_id!r}")
            out[image_id] = reader.floats(dim, f"payload for {image_id!r}")
    return out
