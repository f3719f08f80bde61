"""Binary serialization for named tensors and descriptor dumps.

Both files are little-endian: a header of magic, format version u16 and
record count u32, then exactly that many records, each starting with a
name length u16 + UTF-8 name. A reader rejects a short record, a record
count that is off, a repeated name and trailing bytes.

Tensor container: magic "CDPM"; per tensor, after the name: rank u8,
extents u32 each, payload f64 row-major.

Descriptor dump: magic "CDPD"; per image, after the image id: vector
length u32, payload f64.
"""
from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"CDPM"
DUMP_MAGIC = b"CDPD"
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


def _write(path: str | Path, magic: bytes, records: dict, encode) -> None:
    chunks = [magic, struct.pack("<HI", FORMAT_VERSION, len(records))]
    for name, value in records.items():
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.extend(encode(name, value))
    Path(path).write_bytes(b"".join(chunks))


def _read(path: str | Path, magic: bytes, what: str, decode) -> dict:
    """Read the header, then exactly the counted records, in file order."""
    out = {}
    with open(path, "rb") as fh:
        reader = _Reader(path, fh)
        found, version, count = reader.unpack(f"<{len(magic)}sHI", "header")
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r}")
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        for _ in range(count):
            (name_len,) = reader.unpack("<H", f"{what} name length")
            name = reader.text(name_len, f"{what} name")
            if name in out:
                raise FormatError(f"{path}: repeated {what} name {name!r}")
            out[name] = decode(reader, name)
        if reader.remaining():
            raise FormatError(
                f"{path}: {reader.remaining()} trailing bytes after {count} records"
            )
    return out


def _encode_tensor(name: str, arr) -> list[bytes]:
    arr = np.asarray(arr, dtype=np.float64)  # keeps 0-d tensors 0-d
    if arr.ndim > MAX_RANK:
        raise FormatError(f"tensor {name!r} has rank {arr.ndim} > {MAX_RANK}")
    return [struct.pack(f"<B{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()]


def _decode_tensor(reader: _Reader, name: str) -> np.ndarray:
    (rank,) = reader.unpack("<B", f"rank of tensor {name!r}")
    if rank > MAX_RANK:
        raise FormatError(f"{reader.path}: tensor {name!r} has rank {rank}")
    shape = reader.unpack(f"<{rank}I", f"extents of tensor {name!r}")
    return reader.floats(math.prod(shape), f"payload of tensor {name!r}").reshape(shape)


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write named float64 tensors to `path` in a fixed iteration order."""
    _write(path, MAGIC, tensors, _encode_tensor)


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a tensor container written by `save_tensors`."""
    return _read(path, MAGIC, "tensor", _decode_tensor)


def _encode_descriptor(name: str, vec) -> list[bytes]:
    vec = np.ascontiguousarray(vec, dtype=np.float64).ravel()
    return [struct.pack("<I", vec.size), vec.tobytes()]


def _decode_descriptor(reader: _Reader, image_id: str) -> np.ndarray:
    (dim,) = reader.unpack("<I", f"vector length for {image_id!r}")
    return reader.floats(dim, f"payload for {image_id!r}")


def write_descriptors(path: str | Path, descriptors: dict[str, np.ndarray]) -> None:
    """Write image descriptors as a counted sequence of binary records."""
    _write(path, DUMP_MAGIC, descriptors, _encode_descriptor)


def read_descriptors(path: str | Path) -> dict[str, np.ndarray]:
    """Read a descriptor dump written by `write_descriptors`, in file order."""
    return _read(path, DUMP_MAGIC, "image", _decode_descriptor)
