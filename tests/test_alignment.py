"""Window geometry, soft labels, offsets, selection, and granularity layouts."""
import hashlib
from fractions import Fraction

import numpy as np
import pytest

from cdpm import alignment as al
from cdpm import pipeline
from cdpm.annotations import BoundaryAnnotation, body_rows
from cdpm.model import CdpmNetwork, ModelConfig


def interval(bounds, k) -> tuple[float, float]:
    """Half-open row interval of part k (1-based) of one body's boundaries."""
    return float(bounds[k - 1]), float(bounds[k])


def exact_overlap(a, b) -> float:
    """Interval intersection length in exact rational arithmetic."""
    lo = max(Fraction(a[0]), Fraction(b[0]))
    hi = min(Fraction(a[1]), Fraction(b[1]))
    return float(max(Fraction(0), hi - lo))


# ---------------------------------------------------------------------------
# window grids


def test_enumerate_windows_full_model_geometry():
    """The detection windows are the 21 stride-1 windows of 4 rows over the
    24-row map: window r covers rows [r - 1, r + 3)."""
    assert al.WINDOW_COUNT == 21
    layout = al.part_bounds(0, 24, 6)
    labels = al.soft_label_matrix(layout)
    assert labels.shape == (21, 7)
    np.testing.assert_array_equal(labels[0], [1, 0, 0, 0, 0, 0, 0])
    np.testing.assert_array_equal(labels[20], [0, 0, 0, 0, 0, 1, 0])
    # part 1's center (row 2) minus each window's center, in window heights
    window_centers = 2.0 - 4.0 * al.offset_targets(layout)[0][:, 0]
    np.testing.assert_array_equal(window_centers, np.arange(21) + 2.0)


# ---------------------------------------------------------------------------
# part layouts


def test_part_bounds_whole_map():
    layout = al.part_bounds(0, 24, 6)
    assert layout.shape == (7,) and layout.dtype == np.float64
    for k in range(1, 7):
        assert interval(layout, k) == (4.0 * (k - 1), 4.0 * k)
    np.testing.assert_array_equal((layout[:-1] + layout[1:]) / 2, [2, 6, 10, 14, 18, 22])


def test_part_bounds_annotated_region():
    layout = al.part_bounds(2, 20, 6)
    u1, l1 = interval(layout, 1)
    assert u1 == 2.0 and l1 == 5.0


def test_part_bounds_single_part_and_rejection():
    layout = al.part_bounds(3.5, 17.25, 1)
    assert interval(layout, 1) == (3.5, 17.25)
    with pytest.raises(ValueError):
        al.part_bounds(5, 5, 3)
    with pytest.raises(ValueError):
        al.part_bounds(0, 24, 0)
    with pytest.raises(ValueError):  # one empty body rejects the batch
        al.part_bounds([0.0, 5.0], [24.0, 5.0], 3)


def test_uniform_division():
    layout = al.part_bounds(0, al.MAP_HEIGHT, 6)
    assert [interval(layout, k) for k in (1, 6)] == [(0.0, 4.0), (20.0, 24.0)]
    assert interval(al.part_bounds(0, al.MAP_HEIGHT, 2), 2) == (12.0, 24.0)
    np.testing.assert_allclose(np.diff(al.part_bounds(0, al.MAP_HEIGHT, 7)), 24 / 7)


def test_layout_tiles_without_gaps():
    """Each body's boundaries start at its upper row, end exactly at its
    lower row and increase; a batch gives every body's own bits."""
    rng = np.random.default_rng(3)
    for _ in range(200):
        u = rng.uniform(0, 20)
        v = u + rng.uniform(0.5, 24 - u)
        k = int(rng.integers(1, 9))
        layout = al.part_bounds(u, v, k)
        assert layout.shape == (k + 1,)
        assert layout[0] == u and layout[-1] == v
        assert np.all(np.diff(layout) > 0)
    u = rng.uniform(0, 12, (4, 5))
    v = u + rng.uniform(0.5, 12, (4, 5))
    batch = al.part_bounds(u, v, 6)
    assert batch.shape == (4, 5, 7)
    for i in np.ndindex(4, 5):
        np.testing.assert_array_equal(batch[i], al.part_bounds(u[i], v[i], 6))


# ---------------------------------------------------------------------------
# soft labels


def test_soft_labels_half_half_split():
    layout = al.part_bounds(0, 24, 6)
    y = al.soft_label_matrix(layout)[2]  # window 3, rows [2, 6)
    np.testing.assert_allclose(y, [0.5, 0.5, 0, 0, 0, 0, 0])


def test_soft_labels_with_background():
    layout = al.part_bounds(2, 20, 6)
    y = al.soft_label_matrix(layout)[0]  # window 1, rows [0, 4)
    np.testing.assert_allclose(y[0], 0.5)
    np.testing.assert_allclose(y[6], 0.5)
    np.testing.assert_allclose(y[1:6], 0.0)


def test_soft_labels_one_hot_inside_part():
    layout = al.part_bounds(0, 24, 3)  # parts of height 8
    y = al.soft_label_matrix(layout)[9]  # window 10, rows [9, 13): inside part 2
    np.testing.assert_array_equal(y, [0, 1, 0, 0])


def test_soft_labels_random_layouts_match_interval_oracle():
    rng = np.random.default_rng(11)
    for _ in range(500):
        u = rng.uniform(0, 12)
        v = rng.uniform(u + 1, 24)
        k = int(rng.integers(1, 9))
        layout = al.part_bounds(u, v, k)
        labels = al.soft_label_matrix(layout)
        assert labels.shape == (21, k + 1)
        assert np.all(np.abs(labels.sum(axis=1) - 1.0) < 1e-12)
        assert np.all(labels >= 0) and np.all(labels <= 1)
        for r, y in enumerate(labels):
            for j in range(1, k + 1):
                want = exact_overlap(interval(layout, j), (r, r + 4)) / 4.0
                assert y[j - 1] == want


def test_window_coverage_sums_to_height_times_length():
    # Every row in [h-1, H-h+1] is covered by exactly h windows, so a part
    # there is covered h times its length; a label is coverage / h.
    layout = al.part_bounds(5.3, 19.1, 4)
    labels = al.soft_label_matrix(layout)
    for k in range(1, 5):
        u, l = interval(layout, k)
        np.testing.assert_allclose(labels[:, k - 1].sum(), l - u)


# ---------------------------------------------------------------------------
# offset targets


def test_offset_targets_coincident_centers():
    offsets, mask = al.offset_targets(al.part_bounds(0, 24, 6))
    assert offsets.shape == mask.shape == (21, 6)
    assert offsets[0, 0] == 0.0
    assert mask[0, 0] == 1.0


def test_offset_targets_hand_value():
    offsets, _ = al.offset_targets(al.part_bounds(2, 20, 6))
    # part 1 center 3.5, window 1 center 2 -> (3.5 - 2) / 4
    np.testing.assert_allclose(offsets[0, 0], 0.375)


def test_offset_targets_mask_excludes_far_windows():
    offsets, mask = al.offset_targets(al.part_bounds(8, 16, 1))  # part center 12
    # window 1 center 2: offset (12-2)/4 = 2.5 -> masked out
    assert offsets[0, 0] == 2.5
    assert mask[0, 0] == 0.0


def test_offset_targets_translation_equivariance():
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.uniform(0, 8)
        v = rng.uniform(u + 2, 16)
        delta = rng.uniform(0, 7)
        base, _ = al.offset_targets(al.part_bounds(u, v, 6))
        shifted, _ = al.offset_targets(al.part_bounds(u + delta, v + delta, 6))
        np.testing.assert_allclose(shifted - base, delta / 4.0, atol=1e-12)


# ---------------------------------------------------------------------------
# window selection


def selection_oracle(scores, offsets, threshold):
    """Literal restatement of the selection rule with explicit loops."""
    above = [r for r in range(len(scores)) if scores[r] > threshold]
    if len(above) >= 2:
        best = above[0]
        for r in above[1:]:
            if abs(offsets[r]) < abs(offsets[best]):
                best = r
        return best + 1
    best = 0
    for r in range(1, len(scores)):
        if scores[r] > scores[best]:
            best = r
    return best + 1


def test_select_window_spec_cases():
    cfg = al.SelectionConfig(threshold=0.6)
    assert al.select_window([0.7, 0.65, 0.4], [0.3, -0.1, 0.0], cfg) == 2
    # all at or below threshold -> argmax score
    assert al.select_window([0.5, 0.6, 0.3], [0.9, 0.0, 0.0], cfg) == 2
    # single window above threshold wins regardless of offset
    assert al.select_window([0.9, 0.2, 0.1], [0.99, 0.0, 0.0], cfg) == 1
    # one pick per leading index, windows along the last axis
    picks = al.select_window(
        [[0.7, 0.65, 0.4], [0.5, 0.6, 0.3]], [[0.3, -0.1, 0.0], [0.9, 0.0, 0.0]], cfg
    )
    np.testing.assert_array_equal(picks, [2, 2])
    with pytest.raises(ValueError):
        al.select_window([0.5, 0.6], [0.1, 0.2, 0.3], cfg)


def test_select_window_matches_oracle_on_random_instances():
    """Every pick of a batched selection equals the oracle on its row; half
    the instances draw coarse values, so ties are common."""
    rng = np.random.default_rng(13)
    for trial in range(2000):
        r = int(rng.integers(1, 22))
        if trial % 2:
            scores = rng.integers(0, 6, (2, 3, r)) / 5.0
            offsets = rng.integers(-3, 4, (2, 3, r)) / 3.0
        else:
            scores = rng.random((2, 3, r))
            offsets = rng.uniform(-1, 1, (2, 3, r))
        t = float(rng.random())
        picks = al.select_window(scores, offsets, al.SelectionConfig(threshold=t))
        assert picks.shape == (2, 3)
        for i in np.ndindex(2, 3):
            assert picks[i] == selection_oracle(scores[i], offsets[i], t)


def test_select_window_tie_breaks_to_smaller_index():
    cfg = al.SelectionConfig(threshold=0.5)
    assert al.select_window([0.9, 0.9, 0.9], [0.2, 0.2, 0.2], cfg) == 1
    assert al.select_window([0.4, 0.4, 0.4], [0.1, 0.0, 0.3], cfg) == 1


def test_select_part_windows_reads_part_k_from_column_k_minus_1():
    """Part k's pick reads score column k - 1 and offset column k - 1; the
    last score column (background) picks nothing."""
    net = CdpmNetwork(ModelConfig(classes=2, parts=3))
    rng = np.random.default_rng(19)
    scores = rng.random((4, 21, 4))
    offsets = rng.uniform(-1, 1, (4, 21, 3))
    cfg = al.SelectionConfig(0.6)
    picks = net.select_part_windows(scores, offsets, cfg)
    assert picks.shape == (4, 3) and picks.dtype == np.int64
    for i in range(4):
        for k in range(3):
            assert picks[i, k] == selection_oracle(scores[i, :, k], offsets[i, :, k], 0.6)


# ---------------------------------------------------------------------------
# best-overlap window (ground-truth oracle geometry)


def test_best_overlap_window_exhaustive():
    rng = np.random.default_rng(17)
    for _ in range(300):
        u = rng.uniform(0, 20)
        l = rng.uniform(u + 0.5, 24)
        got = al.layout_tops(al.part_bounds(u, l, 1))[0]
        overlaps = [exact_overlap((u, l), (t, t + 4)) for t in range(21)]
        best = max(overlaps)
        assert overlaps[got] == best
        assert all(overlaps[t] < best for t in range(got))


def test_best_overlap_window_tie_goes_to_smaller_index():
    # part [2, 5): windows with tops 1 and 2 both overlap by 3
    assert al.layout_tops(al.part_bounds(2.0, 5.0, 1))[0] == 1


def _part_tops(ann):
    return al.layout_tops(al.part_bounds(*body_rows(ann), al.NUM_PARTS))


def test_layout_tops_match_soft_label_argmax(tiny_bench):
    index, anns = tiny_bench
    for record in index.split("train"):
        ann = anns[record.image_id]
        layout = al.part_bounds(*body_rows(ann), 6)
        labels = al.soft_label_matrix(layout)
        tops = al.layout_tops(layout)
        for k in range(1, 7):
            assert labels[tops[k - 1], k - 1] == labels[:, k - 1].max()


def test_layout_tops_spec_cases():
    full = BoundaryAnnotation("full", 0, 384, 9000, 9000, "manual")
    assert _part_tops(full)[0] == 0  # window 1
    off = BoundaryAnnotation("off", 32, 320, 9000, 9000, "manual")  # rows [2, 20)
    assert _part_tops(off)[0] == 1  # window 2
    missing = BoundaryAnnotation("m", 0, 384, 10, 9000, "manual")
    assert body_rows(missing) is None
    uniform = al.layout_tops(al.part_bounds(0, 24, 6))
    np.testing.assert_array_equal(al.branch_tops(uniform, ()), [0, 4, 8, 12, 16, 20])
    np.testing.assert_array_equal(al.branch_tops(uniform, (4,))[6:], [0, 6, 12, 18])
    assert al.branch_heights(6, (4,)) == (4,) * 6 + (6,) * 4
    np.testing.assert_array_equal(
        al.branch_tops(uniform, al.GRANULARITIES),
        [0, 4, 8, 12, 16, 20, 0, 12, 0, 8, 16, 0, 6, 12, 18],
    )
    assert al.branch_heights(6, al.GRANULARITIES) == (4,) * 6 + (12,) * 2 + (8,) * 3 + (6,) * 4


# ---------------------------------------------------------------------------
# alignment scoring


def test_alignment_report_hand_computed_ious(tiny_bench, monkeypatch):
    """One query image with body rows [2, 22) and K = 6, so part k spans
    [2 + 10 (k - 1) / 3, 2 + 10 k / 3). Part 1 against uniform [0, 4)
    overlaps 2 rows of a 16/3-row union: IoU 0.375."""
    index, _ = tiny_bench
    image_id = index.split("query")[0].image_id
    anns = {image_id: BoundaryAnnotation(image_id, 32, 352, 9000, 9000, "manual")}
    uniform_iou = [3 / 8, 4 / 7, 5 / 6, 5 / 6, 4 / 7, 3 / 8]
    small = dict(classes=2, backbone_channels=(4, 8, 8, 8, 8), feature_dim=8)

    plain = CdpmNetwork(ModelConfig(**small, with_alignment=False), np.random.default_rng(0))
    report = pipeline.alignment_report(plain, index, anns)
    assert [(r.image_id, r.part, r.window, r.top) for r in report.rows] == [
        (image_id, k, 0, 4.0 * (k - 1)) for k in range(1, 7)
    ]
    np.testing.assert_allclose([r.uniform_iou for r in report.rows], uniform_iou, rtol=1e-12)
    np.testing.assert_allclose([r.iou for r in report.rows], uniform_iou, rtol=1e-12)
    np.testing.assert_allclose([report.mean_iou, report.uniform_mean_iou],
                               np.mean(uniform_iou), rtol=1e-12)

    # detected windows [2, 6), [5, 9), [9, 13), [12, 16), [15, 19), [0, 4)
    detected = CdpmNetwork(ModelConfig(**small), np.random.default_rng(0))
    tops = np.array([[2, 5, 9, 12, 15, 0]])
    monkeypatch.setattr(detected, "part_tops", lambda fmap, selection: tops)
    report = pipeline.alignment_report(detected, index, anns)
    assert [(r.window, r.top) for r in report.rows] == [(t + 1, float(t)) for t in tops[0]]
    np.testing.assert_allclose([r.iou for r in report.rows],
                               [5 / 6, 5 / 6, 9 / 13, 5 / 6, 5 / 6, 0.0], rtol=1e-12)
    np.testing.assert_allclose([r.uniform_iou for r in report.rows], uniform_iou, rtol=1e-12)


# ---------------------------------------------------------------------------
# granularity layouts


def uniform_tops():
    return np.array([[4 * k for k in range(6)]])


def test_granularity_two_from_uniform_centers():
    # part centers are tops + 2: halves centered on rows 6 and 18; each
    # window one row lower but the last, which ends at the map's foot, on 7
    # and 18 2/3
    lower = np.minimum(uniform_tops() + 1, al.WINDOW_COUNT - 1)
    tops = al.infer_granularity_layout(np.concatenate([uniform_tops(), lower]), 2)
    np.testing.assert_array_equal(tops, [[0, 12], [1, 12]])


def test_granularity_three_pairs_adjacent_parts():
    np.testing.assert_array_equal(al.infer_granularity_layout(uniform_tops(), 3),
                                  [[0, 8, 16]])
    # centers 5, 7, 10, 14, 17, 19: pair means 6, 12, 18 -> tops floor(mean - 4 + 0.5)
    part_tops = np.array([[3, 5, 8, 12, 15, 17]])
    np.testing.assert_array_equal(al.infer_granularity_layout(part_tops, 3), [[2, 8, 14]])


def test_granularity_four_fractional_weights():
    np.testing.assert_array_equal(al.infer_granularity_layout(uniform_tops(), 4),
                                  [[0, 6, 12, 18]])
    # centers 2, 14, 14, 16, 18, 20; first group: all of part 1 plus half of
    # part 2 -> (2 + 0.5 * 14) / 1.5 = 6
    part_tops = np.array([[0, 12, 12, 14, 16, 18]])
    assert al.infer_granularity_layout(part_tops, 4)[0, 0] == 3


def test_granularity_windows_reproduce_uniform_division():
    want = {2: [0, 12], 3: [0, 8, 16], 4: [0, 6, 12, 18]}
    for g in (2, 3, 4):
        tops = al.infer_granularity_layout(uniform_tops(), g)
        np.testing.assert_array_equal(tops[0], want[g])
        layout = al.part_bounds(0, al.MAP_HEIGHT, g)
        for j, top in enumerate(tops[0], start=1):
            assert (float(top), float(top + 24 // g)) == interval(layout, j)


def test_granularity_windows_clamped_into_map():
    part_tops = np.array([[0, 0, 0, 20, 20, 20], [0] * 6, [20] * 6])
    for g in (2, 3, 4):
        tops = al.infer_granularity_layout(part_tops, g)
        assert tops.shape == (3, g) and tops.dtype == np.int64
        assert np.all(tops >= 0) and np.all(tops + 24 // g <= 24)


def test_granularity_rows_are_independent():
    rng = np.random.default_rng(29)
    part_tops = rng.integers(0, 21, (32, 6))
    for g in (2, 3, 4):
        tops = al.infer_granularity_layout(part_tops, g)
        for i in range(32):
            one = al.infer_granularity_layout(part_tops[i : i + 1], g)
            np.testing.assert_array_equal(tops[i : i + 1], one)


def test_granularity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        al.infer_granularity_layout(uniform_tops(), 5)
    with pytest.raises(ValueError):
        al.infer_granularity_layout(np.full((1, 6), 25), 2)
    with pytest.raises(ValueError):
        al.infer_granularity_layout(uniform_tops()[0], 2)  # one image still needs (1, 6)


# ---------------------------------------------------------------------------
# bit pin: digests of the outputs of the earlier per-window implementation


PIN_SPANS = [(0.0, 24.0), (2.0, 20.0), (3.25, 22.5), (37 / 16, 345 / 16), (5.3, 19.1),
             (-1.5, 25.0)]


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_outputs_keep_the_bits_of_the_per_window_implementation():
    """Soft labels, offsets, masks and part tops for 1..24 parts on fixed
    spans, granularity tops and part picks on a seeded set, and every
    branch's tops from seeded part tops and from the part tops of fixed and
    seeded spans, hash to the digests the per-window, per-image, per-group
    implementation gave: from one call per span and from one batched call
    over all spans. The branch digests are those of the part tops followed
    by `infer_granularity_layout` of their centers, the descriptor rule."""
    upper, lower = np.array(PIN_SPANS).T
    labels, tops, batched_labels, batched_tops = [], [], [], []
    for k in range(1, 25):
        for u, v in PIN_SPANS:
            layout = al.part_bounds(u, v, k)
            labels += [al.soft_label_matrix(layout), *al.offset_targets(layout)]
            tops.append(al.layout_tops(layout))
        layouts = al.part_bounds(upper, lower, k)
        per_span = [al.soft_label_matrix(layouts), *al.offset_targets(layouts)]
        per_span_tops = al.layout_tops(layouts)
        for i in range(len(PIN_SPANS)):
            batched_labels += [a[i] for a in per_span]
            batched_tops.append(per_span_tops[i])
    for digest in (_digest(labels), _digest(batched_labels)):
        assert digest == "f24cc3de60b29bd4e3c568999861deea2a01b5bc101c1c3b0e5fb63352afc003"
    for digest in (_digest(tops), _digest(batched_tops)):
        assert digest == "232db821622f3ea773624d5cf256e6bd12a14602b4e637507cdcaffc4df2eb70"

    rng = np.random.default_rng(1906)
    part_tops = rng.integers(0, 21, (64, 6))
    gran = [al.infer_granularity_layout(part_tops, g) for g in (2, 3, 4)]
    assert _digest(gran) == "fa634449cf7edc09bb3032c1b47074950445905907b8c71bbcc20ecefbf632e6"
    branch = al.branch_tops(part_tops, al.GRANULARITIES)
    assert _digest([branch]) == (
        "c80af759706fb4e27201d2db555dc24970d6d9eedb109f0819eada429e175079")
    per_image = [al.branch_tops(row, al.GRANULARITIES) for row in part_tops]
    assert _digest(per_image) == (
        "4051b070645f3ba0514eeccb1880d25e0f6986bcbf7b4b283b04a29c09e938da")

    net = CdpmNetwork(ModelConfig(classes=2))
    scores = rng.integers(0, 6, (16, 21, 7)) / 5.0
    offsets = rng.integers(-3, 4, (16, 21, 6)) / 3.0
    picks = [net.select_part_windows(scores, offsets, al.SelectionConfig(t))
             for t in (0.0, 0.6, 1.0)]
    assert _digest(picks) == "96f7653899c0a0a9b21c31bada899c910758aa5729e51eb26927500c0b5fda6a"

    rng = np.random.default_rng(16)
    lo = rng.uniform(-2.0, 18.0, 8)
    upper, lower = np.array(PIN_SPANS + list(zip(lo, lo + rng.uniform(2.0, 12.0, 8)))).T
    branch = al.branch_tops(al.layout_tops(al.part_bounds(upper, lower, 6)), al.GRANULARITIES)
    assert _digest([branch]) == (
        "ab7026d653ffed874b8f11a3b635ec6c8f53372afbe38aef4d9c85e39590fca5")
