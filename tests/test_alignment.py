"""Window geometry, soft labels, offsets, selection, and granularity layouts."""
from fractions import Fraction

import numpy as np
import pytest

from cdpm import alignment as al
from cdpm.annotations import BoundaryAnnotation, supervision_mode


def exact_overlap(a, b) -> float:
    """Interval intersection length in exact rational arithmetic."""
    lo = max(Fraction(a[0]), Fraction(b[0]))
    hi = min(Fraction(a[1]), Fraction(b[1]))
    return float(max(Fraction(0), hi - lo))


# ---------------------------------------------------------------------------
# window grids


def test_enumerate_windows_full_model_geometry():
    grid = al.enumerate_windows(24, 4)
    assert grid.count == 21
    assert grid.window(1).top == 0 and grid.window(21).top == 20
    assert all(w.bottom <= 24 for w in grid.windows())


def test_enumerate_windows_degenerate_and_generic():
    grid = al.enumerate_windows(4, 4)
    assert grid.count == 1 and grid.window(1).top == 0 and grid.window(1).bottom == 4
    grid = al.enumerate_windows(10, 3)
    assert grid.count == 8
    assert [w.top for w in grid.windows()] == list(map(float, range(8)))


def test_enumerate_windows_rejects_oversized_window():
    with pytest.raises(ValueError):
        al.enumerate_windows(3, 4)


# ---------------------------------------------------------------------------
# part layouts


def test_part_intervals_whole_map():
    layout = al.part_intervals(0, 24, 6)
    for k in range(1, 7):
        assert layout.interval(k) == (4.0 * (k - 1), 4.0 * k)


def test_part_intervals_annotated_region():
    layout = al.part_intervals(2, 20, 6)
    u1, l1 = layout.interval(1)
    assert u1 == 2.0 and l1 == 5.0


def test_part_intervals_single_part_and_rejection():
    layout = al.part_intervals(3.5, 17.25, 1)
    assert layout.interval(1) == (3.5, 17.25)
    with pytest.raises(ValueError):
        al.part_intervals(5, 5, 3)


def test_uniform_layout():
    layout = al.uniform_layout(24, 6)
    assert [layout.interval(k) for k in (1, 6)] == [(0.0, 4.0), (20.0, 24.0)]
    assert al.uniform_layout(24, 2).interval(2) == (12.0, 24.0)
    heights = np.diff(al.uniform_layout(23, 6).boundaries)
    np.testing.assert_allclose(heights, 23 / 6)


def test_layout_tiles_without_gaps():
    rng = np.random.default_rng(3)
    for _ in range(200):
        u = rng.uniform(0, 20)
        v = u + rng.uniform(0.5, 24 - u)
        k = int(rng.integers(1, 9))
        layout = al.part_intervals(u, v, k)
        for j in range(1, k):
            assert layout.interval(j)[1] == layout.interval(j + 1)[0]


# ---------------------------------------------------------------------------
# soft labels


def test_soft_labels_half_half_split():
    layout = al.part_intervals(0, 24, 6)
    window = al.SlidingWindow(index=3, top=2.0, height=4)
    y = al.soft_labels(window, layout)
    np.testing.assert_allclose(y, [0.5, 0.5, 0, 0, 0, 0, 0])


def test_soft_labels_with_background():
    layout = al.part_intervals(2, 20, 6)
    window = al.SlidingWindow(index=1, top=0.0, height=4)
    y = al.soft_labels(window, layout)
    np.testing.assert_allclose(y[0], 0.5)
    np.testing.assert_allclose(y[6], 0.5)
    np.testing.assert_allclose(y[1:6], 0.0)


def test_soft_labels_one_hot_inside_part():
    layout = al.part_intervals(0, 24, 3)  # parts of height 8
    window = al.SlidingWindow(index=10, top=9.0, height=4)  # inside part 2
    y = al.soft_labels(window, layout)
    np.testing.assert_array_equal(y, [0, 1, 0, 0])


def test_soft_labels_random_layouts_match_interval_oracle():
    rng = np.random.default_rng(11)
    grid = al.enumerate_windows(24, 4)
    for _ in range(500):
        u = rng.uniform(0, 12)
        v = rng.uniform(u + 1, 24)
        k = int(rng.integers(1, 9))
        layout = al.part_intervals(u, v, k)
        for w in grid.windows():
            y = al.soft_labels(w, layout)
            assert abs(y.sum() - 1.0) < 1e-12
            assert np.all(y >= 0) and np.all(y <= 1)
            for j in range(1, k + 1):
                want = exact_overlap(layout.interval(j), (w.top, w.bottom)) / 4.0
                assert y[j - 1] == want


def test_window_coverage_sums_to_height_times_length():
    # Every row in [h-1, H-h+1] is covered by exactly h windows.
    grid = al.enumerate_windows(24, 4)
    layout = al.part_intervals(5.3, 19.1, 4)
    for k in range(1, 5):
        u, l = layout.interval(k)
        total = sum(
            al.overlap_length((u, l), (w.top, w.bottom)) for w in grid.windows()
        )
        np.testing.assert_allclose(total, 4 * (l - u))


# ---------------------------------------------------------------------------
# offset targets


def test_offset_targets_coincident_centers():
    grid = al.enumerate_windows(24, 4)
    layout = al.part_intervals(0, 24, 6)
    target = al.offset_targets(grid, layout)
    assert target.offsets[0, 0] == 0.0
    assert target.mask[0, 0] == 1.0


def test_offset_targets_hand_value():
    grid = al.enumerate_windows(24, 4)
    layout = al.part_intervals(2, 20, 6)
    target = al.offset_targets(grid, layout)
    # part 1 center 3.5, window 1 center 2 -> (3.5 - 2) / 4
    np.testing.assert_allclose(target.offsets[0, 0], 0.375)


def test_offset_targets_mask_excludes_far_windows():
    grid = al.enumerate_windows(24, 4)
    layout = al.part_intervals(8, 16, 1)  # part center 12
    target = al.offset_targets(grid, layout)
    # window 1 center 2: offset (12-2)/4 = 2.5 -> masked out
    assert target.offsets[0, 0] == 2.5
    assert target.mask[0, 0] == 0.0


def test_offset_targets_translation_equivariance():
    grid = al.enumerate_windows(24, 4)
    rng = np.random.default_rng(5)
    for _ in range(50):
        u = rng.uniform(0, 8)
        v = rng.uniform(u + 2, 16)
        delta = rng.uniform(0, 7)
        base = al.offset_targets(grid, al.part_intervals(u, v, 6))
        shifted = al.offset_targets(grid, al.part_intervals(u + delta, v + delta, 6))
        np.testing.assert_allclose(
            shifted.offsets - base.offsets, delta / 4.0, atol=1e-12
        )


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


def test_select_window_matches_oracle_on_random_instances():
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        r = int(rng.integers(1, 22))
        scores = rng.random(r)
        offsets = rng.uniform(-1, 1, r)
        t = float(rng.random())
        cfg = al.SelectionConfig(threshold=t)
        assert al.select_window(scores, offsets, cfg) == selection_oracle(
            scores, offsets, t
        )


def test_select_window_tie_breaks_to_smaller_index():
    cfg = al.SelectionConfig(threshold=0.5)
    assert al.select_window([0.9, 0.9, 0.9], [0.2, 0.2, 0.2], cfg) == 1
    assert al.select_window([0.4, 0.4, 0.4], [0.1, 0.0, 0.3], cfg) == 1


# ---------------------------------------------------------------------------
# best-overlap window (ground-truth oracle geometry)


def test_best_overlap_window_exhaustive():
    grid = al.enumerate_windows(24, 4)
    rng = np.random.default_rng(17)
    for _ in range(300):
        u = rng.uniform(0, 20)
        l = rng.uniform(u + 0.5, 24)
        got = al.best_overlap_window(grid, (u, l))
        overlaps = [
            al.overlap_length((u, l), (w.top, w.bottom)) for w in grid.windows()
        ]
        best = max(overlaps)
        assert overlaps[got - 1] == best
        assert all(overlaps[r] < best for r in range(got - 1))


def test_best_overlap_window_tie_goes_to_smaller_index():
    grid = al.enumerate_windows(24, 4)
    # part [2, 5): windows with tops 1 and 2 both overlap by 3
    assert al.best_overlap_window(grid, (2.0, 5.0)) == 2


def _part_tops(ann):
    mode = supervision_mode(ann)
    layout = al.part_intervals(mode.upper, mode.lower, al.NUM_PARTS)
    return al.layout_tops(layout, al.WINDOW_HEIGHT)


def test_layout_tops_match_soft_label_argmax(tiny_bench):
    index, anns = tiny_bench
    grid = al.enumerate_windows(24, 4)
    for record in index.split("train"):
        ann = anns[record.image_id]
        mode = supervision_mode(ann)
        layout = al.part_intervals(mode.upper, mode.lower, 6)
        labels = al.soft_label_matrix(grid, layout)
        tops = al.layout_tops(layout, 4)
        for k in range(1, 7):
            assert labels[tops[k - 1], k - 1] == labels[:, k - 1].max()


def test_layout_tops_spec_cases():
    full = BoundaryAnnotation("full", 0, 384, 9000, 9000, "manual")
    assert _part_tops(full)[0] == 0  # window 1
    off = BoundaryAnnotation("off", 32, 320, 9000, 9000, "manual")  # rows [2, 20)
    assert _part_tops(off)[0] == 1  # window 2
    missing = BoundaryAnnotation("m", 0, 384, 10, 9000, "manual")
    assert supervision_mode(missing).is_aligned is False


# ---------------------------------------------------------------------------
# granularity layouts


def uniform_centers():
    return np.array([4 * k - 2 for k in range(1, 7)], dtype=np.float64)


def test_granularity_two_from_uniform_centers():
    wins = al.infer_granularity_layout(uniform_centers(), 2)
    assert [w.center for w in wins] == [6.0, 18.0]
    assert [(w.top, w.bottom) for w in wins] == [(0, 12), (12, 24)]


def test_granularity_three_pairs_adjacent_parts():
    wins = al.infer_granularity_layout(uniform_centers(), 3)
    c = uniform_centers()
    np.testing.assert_allclose(
        [w.center for w in wins], [(c[0] + c[1]) / 2, (c[2] + c[3]) / 2, (c[4] + c[5]) / 2]
    )
    assert [(w.top, w.bottom) for w in wins] == [(0, 8), (8, 16), (16, 24)]


def test_granularity_four_fractional_weights():
    wins = al.infer_granularity_layout(uniform_centers(), 4)
    # first group: all of part 1 plus half of part 2 -> (2 + 0.5*6) / 1.5
    np.testing.assert_allclose(wins[0].center, 10.0 / 3.0)
    assert [(w.top, w.bottom) for w in wins] == [(0, 6), (6, 12), (12, 18), (18, 24)]


def test_granularity_windows_reproduce_uniform_layout():
    for g in (2, 3, 4):
        wins = al.infer_granularity_layout(uniform_centers(), g)
        layout = al.uniform_layout(24, g)
        for j, w in enumerate(wins, start=1):
            assert (float(w.top), float(w.bottom)) == layout.interval(j)


def test_granularity_windows_clamped_into_map():
    centers = np.array([0.5, 0.5, 0.5, 23.5, 23.5, 23.5])
    for g in (2, 3, 4):
        for w in al.infer_granularity_layout(centers, g):
            assert 0 <= w.top and w.bottom <= 24
            assert w.height == 24 // g


def test_granularity_rejects_bad_inputs():
    with pytest.raises(ValueError):
        al.infer_granularity_layout(uniform_centers(), 5)
    with pytest.raises(ValueError):
        al.infer_granularity_layout(np.full(6, 25.0), 2)
