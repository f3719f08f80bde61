"""Boundary annotation parsing, part-missing rule, and body rows."""
import pytest

from cdpm import annotations as an


def make_ann(**kw):
    base = dict(
        image_id="0001_c1_0000",
        upper_px=32,
        lower_px=352,
        head_pixels=5000,
        lower_pixels=6000,
        source="automatic",
    )
    base.update(kw)
    return an.BoundaryAnnotation(**base)


def test_detect_part_missing_rule():
    assert not an.detect_part_missing(make_ann())
    assert an.detect_part_missing(make_ann(head_pixels=1000))
    assert an.detect_part_missing(make_ann(lower_pixels=1279))
    # boundary of the rule: strictly less-than
    assert not an.detect_part_missing(make_ann(head_pixels=1280, lower_pixels=1280))
    # missing counts are conservative
    assert an.detect_part_missing(make_ann(head_pixels=None))


def test_body_rows_feature_rows():
    assert an.body_rows(make_ann(upper_px=0, lower_px=384)) == (0.0, 24.0)
    assert an.body_rows(make_ann(upper_px=32, lower_px=352)) == (2.0, 22.0)
    u, v = an.body_rows(make_ann(upper_px=100, lower_px=250))
    assert u == 100 / 16 and v == 250 / 16


def test_px_row_roundtrip_exact_for_multiples_of_16():
    for px in range(0, 385, 16):
        row = px / 16
        assert row * 16 == px


def test_invalid_boundaries_rejected():
    with pytest.raises(ValueError):
        make_ann(upper_px=16, lower_px=16)
    with pytest.raises(ValueError):
        make_ann(upper_px=-1)
    with pytest.raises(ValueError):
        make_ann(head_pixels=-5)


def test_body_rows_aligned():
    assert an.body_rows(make_ann()) == (2.0, 22.0)


def test_body_rows_uniform_cases():
    assert an.body_rows(None) is None
    assert an.body_rows(make_ann(upper_px=None, lower_px=None)) is None
    # part-missing flag forces uniform division even with boundaries present
    assert an.body_rows(make_ann(head_pixels=100)) is None


def test_body_rows_shift_that_empties_the_body_is_uniform():
    """A valid body in the last rows of the frame, shifted down by the
    largest offline shift, clamps to [384, 384): no body is left, so the
    copy trains with uniform division."""
    ann = make_ann(upper_px=376, lower_px=384, head_pixels=5000, lower_pixels=5000)
    assert an.body_rows(ann) == (23.5, 24.0)
    assert an.body_rows(ann, 7) == (23.9375, 24.0)
    assert an.body_rows(ann, 8) is None
    assert an.body_rows(ann, -8) == (23.0, 23.5)
    top = make_ann(upper_px=0, lower_px=8)
    assert an.body_rows(top, -8) is None and an.body_rows(top, -7) == (0.0, 1 / 16)


def test_body_rows_total_and_deterministic():
    cases = [
        None,
        make_ann(),
        make_ann(head_pixels=0),
        make_ann(upper_px=None, lower_px=None),
    ]
    for ann in cases:
        for dy in (-8, 0, 8):
            a = an.body_rows(ann, dy)
            assert a == an.body_rows(ann, dy)
            assert a is None or (len(a) == 2 and all(isinstance(v, float) for v in a))


def test_csv_roundtrip(tmp_path):
    anns = {
        "a": make_ann(image_id="a"),
        "b": make_ann(image_id="b", head_pixels=None, source="synthetic"),
        "c": an.BoundaryAnnotation("c", None, None, None, None, "manual"),
    }
    path = tmp_path / "annotations.csv"
    an.save_annotations(path, anns)
    loaded = an.load_annotations(path)
    assert loaded == anns


def test_csv_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("one,two,three\n")
    with pytest.raises(ValueError, match="expected 6 fields"):
        an.load_annotations(path)
