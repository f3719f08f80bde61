"""Binary tensor container and descriptor dump round-trips."""
import struct

import numpy as np
import pytest

from cdpm import tensorio

RNG = np.random.default_rng(31)


def test_tensor_roundtrip_bit_exact(tmp_path):
    tensors = {
        "scalarish": np.array([3.14159]),
        "conv.w": RNG.standard_normal((3, 3, 2, 4)),
        "empty-name-ok": RNG.standard_normal(7),
        "unicode_κ": np.array([[1.0, -0.0], [np.pi, 1e-300]]),
    }
    path = tmp_path / "params.cdpm"
    tensorio.save_tensors(path, tensors)
    loaded = tensorio.load_tensors(path)
    assert list(loaded) == list(tensors)
    for name in tensors:
        assert loaded[name].shape == tensors[name].shape
        assert loaded[name].tobytes() == np.ascontiguousarray(tensors[name]).tobytes()


def test_tensor_roundtrip_keeps_rank_zero_and_one(tmp_path):
    tensors = {"s": np.array(2.0), "v": np.array([2.0]), "n": np.array(-0.0)}
    path = tmp_path / "ranks.cdpm"
    tensorio.save_tensors(path, tensors)
    loaded = tensorio.load_tensors(path)
    for name, value in tensors.items():
        assert loaded[name].shape == value.shape
        assert loaded[name].tobytes() == value.tobytes()


def test_tensor_header_layout(tmp_path):
    path = tmp_path / "one.cdpm"
    tensorio.save_tensors(path, {"ab": np.zeros((2, 3))})
    blob = path.read_bytes()
    assert blob[:4] == b"CDPM"
    version, count = struct.unpack_from("<HI", blob, 4)
    assert version == 1 and count == 1
    name_len = struct.unpack_from("<H", blob, 10)[0]
    assert name_len == 2 and blob[12:14] == b"ab"
    rank = blob[14]
    assert rank == 2
    assert struct.unpack_from("<2I", blob, 15) == (2, 3)
    assert len(blob) == 15 + 8 + 2 * 3 * 8


def test_tensor_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(tensorio.FormatError, match="magic"):
        tensorio.load_tensors(path)


def test_tensor_rank_limit(tmp_path):
    with pytest.raises(tensorio.FormatError, match="rank"):
        tensorio.save_tensors(tmp_path / "x.cdpm", {"t": np.zeros((1, 1, 1, 1, 1))})


def test_descriptor_roundtrip(tmp_path):
    descs = {
        "0001_c1_0000": RNG.standard_normal(3072),
        "0002_c2_0001": RNG.standard_normal(3072),
    }
    path = tmp_path / "descs.bin"
    tensorio.write_descriptors(path, descs)
    loaded = tensorio.read_descriptors(path)
    assert list(loaded) == list(descs)
    for k in descs:
        assert loaded[k].tobytes() == descs[k].tobytes()


def test_descriptor_truncation_detected(tmp_path):
    path = tmp_path / "descs.bin"
    tensorio.write_descriptors(path, {"a": np.arange(4.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(tensorio.FormatError, match="truncated"):
        tensorio.read_descriptors(path)


def two_record_dump(path):
    tensorio.write_descriptors(path, {
        "0001_c1_0000": RNG.standard_normal(4),
        "0002_c1_0001": RNG.standard_normal(4),
    })
    return path.read_bytes()


def test_descriptor_header_layout(tmp_path):
    blob = two_record_dump(tmp_path / "descs.bin")
    assert blob[:4] == b"CDPD"
    assert struct.unpack_from("<HIH", blob, 4) == (1, 2, 12)
    assert blob[12:24] == b"0001_c1_0000"
    assert struct.unpack_from("<I", blob, 24) == (4,)
    assert len(blob) == 10 + 2 * (2 + 12 + 4 + 4 * 8)


def test_descriptor_truncation_at_every_byte(tmp_path):
    blob = two_record_dump(tmp_path / "descs.bin")
    assert len(blob) == 110
    path = tmp_path / "cut.bin"
    for cut in range(len(blob)):  # a cut at the record boundary (byte 60) too
        path.write_bytes(blob[:cut])
        with pytest.raises(tensorio.FormatError, match="truncated"):
            tensorio.read_descriptors(path)


def test_descriptor_count_trailing_bytes_and_magic_checked(tmp_path):
    blob = two_record_dump(tmp_path / "descs.bin")
    path = tmp_path / "bad.bin"
    for bad, message in [
        (blob[:6] + struct.pack("<I", 1) + blob[10:], "trailing bytes"),
        (blob[:6] + struct.pack("<I", 3) + blob[10:], "truncated"),
        (blob + b"\0", "trailing bytes"),
        (blob + blob[10:60], "trailing bytes"),
        (blob[:6] + struct.pack("<I", 3) + blob[10:] + blob[10:60], "repeated"),
        (b"CDPM" + blob[4:], "magic"),
        (blob[:4] + struct.pack("<H", 2) + blob[6:], "version"),
    ]:
        path.write_bytes(bad)
        with pytest.raises(tensorio.FormatError, match=message):
            tensorio.read_descriptors(path)


def test_tensor_truncation_at_every_byte(tmp_path):
    path = tmp_path / "params.cdpm"
    tensorio.save_tensors(path, {"w": RNG.standard_normal((2, 2)),
                                 "bn": RNG.standard_normal(3)})
    blob = path.read_bytes()
    assert len(blob) == 87
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(tensorio.FormatError):
            tensorio.load_tensors(path)


def test_non_utf8_names_rejected(tmp_path):
    path = tmp_path / "params.cdpm"
    tensorio.save_tensors(path, {"ab": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[12] = 0xFF  # first byte of the tensor name
    path.write_bytes(bytes(blob))
    with pytest.raises(tensorio.FormatError, match="UTF-8"):
        tensorio.load_tensors(path)
    tensorio.write_descriptors(path, {"ab": np.zeros(2)})
    blob = bytearray(path.read_bytes())
    blob[12] = 0xFF  # first byte of the image id
    path.write_bytes(bytes(blob))
    with pytest.raises(tensorio.FormatError, match="UTF-8"):
        tensorio.read_descriptors(path)
