"""PPM IO, dataset indexing, and the synthetic generator's guarantees."""
import hashlib

import numpy as np
import pytest

from cdpm import data
from cdpm.annotations import body_rows, load_annotations

RNG = np.random.default_rng(61)


def test_ppm_roundtrip(tmp_path):
    img = RNG.integers(0, 256, (384, 128, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    data.write_ppm(path, img)
    assert np.array_equal(data.read_ppm(path), img)
    floats = data.load_image(path)
    assert floats.dtype == np.float64
    assert floats.min() >= 0.0 and floats.max() <= 1.0


def test_pixel_scale_roundtrip():
    pixels = np.arange(data.PIXEL_MAX + 1, dtype=np.uint8)
    floats = data.to_unit_float(pixels)
    assert floats[0] == 0.0 and floats[-1] == 1.0
    assert np.array_equal(data.to_uint8(floats), pixels)


def test_ppm_rejects_bad_input(tmp_path):
    with pytest.raises(data.DataError):
        data.write_ppm(tmp_path / "x.ppm", np.zeros((4, 4, 3)))  # not uint8
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P5\n2 2\n255\n....")
    with pytest.raises(data.DataError):
        data.read_ppm(bad)


def test_ppm_header_larger_than_pixel_data_is_truncated(tmp_path):
    path = tmp_path / "big.ppm"
    path.write_bytes(b"P6\n9999 9999\n255\n" + bytes(30))
    with pytest.raises(data.DataError, match="truncated pixel data"):
        data.read_ppm(path)


def test_ppm_header_comments_are_skipped(tmp_path):
    """`#` comments between header tokens, as GIMP writes them, read back
    the same pixels."""
    img = (np.arange(4 * 2 * 3) * 37 % 256).astype(np.uint8).reshape(4, 2, 3)
    path = tmp_path / "commented.ppm"
    for header in (b"P6\n# Created by GIMP version 2.10.34 PNM plug-in\n2 4\n255\n",
                   b"P6 #a\n2#b\r4\n#c\n\n# d\n255\n"):
        path.write_bytes(header + img.tobytes())
        assert np.array_equal(data.read_ppm(path), img)


def test_parse_image_name():
    assert data.parse_image_name("0042_c1_0007") == (42, 1, 7)
    assert data.parse_image_name("-1_c3_0000") == (-1, 3, 0)
    assert data.parse_image_name("junkfile") is None


def make_tree(tmp_path, names_by_split):
    img = np.zeros((384, 128, 3), dtype=np.uint8)
    for split, names in names_by_split.items():
        folder = tmp_path / split
        folder.mkdir(parents=True, exist_ok=True)
        for n in names:
            data.write_ppm(folder / f"{n}.ppm", img)
    return tmp_path


def test_load_dataset_contiguous_labels(tmp_path):
    root = make_tree(
        tmp_path,
        {
            "train": ["0007_c1_0000", "0003_c2_0000", "0007_c2_0001"],
            "query": ["0100_c1_0000"],
            "gallery": ["0100_c2_0000"],
        },
    )
    index = data.load_dataset(root)
    assert index.class_count == 2
    labels = {r.identity: r.label for r in index.split("train")}
    assert labels == {3: 1, 7: 2}
    assert sorted(l for l in labels.values()) == [1, 2]


def test_load_dataset_rejects_train_test_overlap(tmp_path):
    root = make_tree(
        tmp_path,
        {"train": ["0001_c1_0000"], "query": ["0001_c2_0000"], "gallery": []},
    )
    with pytest.raises(data.DataError, match="both train and test"):
        data.load_dataset(root)


def test_load_dataset_skips_unparsable(tmp_path):
    root = make_tree(tmp_path, {"train": ["0001_c1_0000"]})
    (root / "train" / "notaname.ppm").write_bytes(
        b"P6\n1 1\n255\n\x00\x00\x00"
    )
    index = data.load_dataset(root)
    assert index.skipped == 1
    assert len(index.split("train")) == 1


def test_load_dataset_rejects_empty_train(tmp_path):
    (tmp_path / "train").mkdir()
    with pytest.raises(data.DataError, match="empty train"):
        data.load_dataset(tmp_path)


def test_rescan_identical(tmp_path):
    root = make_tree(
        tmp_path, {"train": ["0002_c1_0000", "0001_c1_0000"], "query": [], "gallery": []}
    )
    a = data.load_dataset(root)
    b = data.load_dataset(root)
    assert [r.image_id for r in a.split("train")] == [
        r.image_id for r in b.split("train")
    ]


def test_place_pedestrian_spec_values():
    assert data.place_pedestrian(0.0, 1.0) == (0, 384)
    assert data.place_pedestrian(32 / 384, 0.8) == (32, 339)
    with pytest.raises(data.DataError):
        data.place_pedestrian(0.5, 0.8)


def test_synthetic_spec_validation():
    with pytest.raises(data.DataError):
        data.SyntheticSpec(identities=0, images_per_identity=1)
    with pytest.raises(data.DataError):
        data.SyntheticSpec(identities=1, images_per_identity=1, offset_range=(0.5, 0.6),
                           scale_range=(0.6, 0.6))
    data.SyntheticSpec(identities=1, images_per_identity=1)  # defaults fit


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    index = data.generate_benchmark(
        root, train_identities=4, images_per_identity=3,
        test_identities=2, test_images_per_identity=3, seed=9,
    )
    return root, index


def test_benchmark_layout(bench):
    root, index = bench
    assert len(index.split("train")) == 12
    assert len(index.split("query")) == 2  # 1 of 3 images per test identity
    assert len(index.split("gallery")) == 4
    assert index.class_count == 4
    assert (root / "annotations.csv").exists()
    for r in index.split("query"):
        assert r.camera == 1
    for r in index.split("gallery"):
        assert r.camera == 2


def test_benchmark_annotations_exact_and_within_frame(bench):
    root, index = bench
    anns = load_annotations(root / "annotations.csv")
    for split in data.SPLITS:
        for record in index.split(split):
            ann = anns[record.image_id]
            assert 0 <= ann.upper_px < ann.lower_px <= 384
            assert ann.source == "synthetic"
            assert body_rows(ann) is not None


def test_generator_deterministic(tmp_path):
    spec = dict(train_identities=2, images_per_identity=2, test_identities=1,
                test_images_per_identity=3, seed=17)
    a_root, b_root = tmp_path / "a", tmp_path / "b"
    data.generate_benchmark(a_root, **spec)
    data.generate_benchmark(b_root, **spec)
    for rel in sorted(p.relative_to(a_root) for p in a_root.rglob("*") if p.is_file()):
        assert (a_root / rel).read_bytes() == (b_root / rel).read_bytes(), rel


def test_renderer_bands_identity_specific(bench):
    # two identities must render visibly different pedestrians at equal placement
    c1 = data.identity_colors(9, 1)
    c2 = data.identity_colors(9, 2)
    assert not np.allclose(c1, c2)
    rng = np.random.default_rng(0)
    img1 = data.render_pedestrian(c1, 20, 360, np.random.default_rng(1), 0.3)
    img2 = data.render_pedestrian(c2, 20, 360, np.random.default_rng(1), 0.3)
    assert np.abs(img1 - img2).mean() > 0.05


#: sha256 over the tiny bench's relative paths and file bytes: pins every
#: RNG draw and rounding step of the generator
TINY_BENCH_DIGEST = "b3dbbd5ec00c1905c230058e8bd78e14d3038e450e431b12e60961bf3fd1a891"


def test_generated_tiny_bench_keeps_its_bytes(tiny_bench):
    index, _ = tiny_bench
    root = index.root
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == TINY_BENCH_DIGEST
