"""Schedules, optimizer, augmentation, batch composition, and full runs."""
import collections
import dataclasses
import hashlib
import tempfile
import tracemalloc

import numpy as np
import pytest

import conv_reference
from cdpm import alignment, augment, data, losses, model, ops, pipeline, training
from cdpm.annotations import BoundaryAnnotation, body_rows
from cdpm.augment import AugmentationConfig
from cdpm.config import Config, apply_assignments
from cdpm.losses import LossWeights, TripletConfig
from cdpm.model import CdpmNetwork, ModelConfig, gather_windows
from cdpm.training import (
    SGDMomentum,
    StepFlags,
    TrainSettings,
    build_train_set,
    compose_batch,
    learning_rate,
    run_training,
    stage_schedule,
)

RNG = np.random.default_rng(81)


# ---------------------------------------------------------------------------
# schedule


def blank_net(**kw):
    """An uninitialised small network: the stage table reads only its
    config and its parameters."""
    return CdpmNetwork(ModelConfig(classes=4, backbone_channels=(4, 8, 8, 8, 8),
                                   feature_dim=16, holistic_dim=16,
                                   attention_reduction=4, **kw))


def test_stage_schedule_full_scale():
    net = blank_net()
    s1, s2, s3 = stage_schedule(net, 1.0)
    assert (s1.epochs, s1.base_lr, s1.milestones) == (50, 0.01, (20, 40))
    assert (s2.epochs, s2.base_lr, s2.milestones) == (40, 0.01, (15, 30))
    assert (s3.epochs, s3.base_lr, s3.milestones) == (30, 0.001, (20,))
    assert s1.params == tuple(net.baseline_parameters())
    assert set(s2.params) == set(net.parameters()) - set(s1.params)
    assert s3.params == tuple(net.parameters())


def test_learning_rate_piecewise_sequences():
    s1, s2, s3 = stage_schedule(blank_net(), 1.0)
    lr1 = [learning_rate(s1, e) for e in range(50)]
    assert lr1[:20] == [0.01] * 20
    assert lr1[20:40] == pytest.approx([0.001] * 20)
    assert lr1[40:] == pytest.approx([0.0001] * 10)
    lr2 = [learning_rate(s2, e) for e in range(40)]
    assert lr2[:15] == [0.01] * 15
    assert lr2[15:30] == pytest.approx([0.001] * 15)
    assert lr2[30:] == pytest.approx([0.0001] * 10)
    lr3 = [learning_rate(s3, e) for e in range(30)]
    assert lr3[:20] == [0.001] * 20
    assert lr3[20:] == pytest.approx([0.0001] * 10)


def test_stage_schedule_scaling():
    net = blank_net()
    s1, s2, s3 = stage_schedule(net, 0.2)
    assert [s.epochs for s in (s1, s2, s3)] == [10, 8, 6]
    assert (s1.milestones, s2.milestones, s3.milestones) == ((4, 8), (3, 6), (4,))
    # the decay step is scaled, not each milestone: 0.125 * (20, 40) would give (2, 5)
    s1, s2, s3 = stage_schedule(net, 0.125)
    assert [s.epochs for s in (s1, s2, s3)] == [6, 5, 4]
    assert (s1.milestones, s2.milestones, s3.milestones) == ((2, 4), (2, 4), (2,))
    tiny = stage_schedule(net, 0.01)
    assert all(s.epochs >= 1 for s in tiny)


#: stage 2's and stage 3's (refinement, detection, mgf) per configuration
STAGE_PATHS = {
    "baseline": (False, False, False),
    "baseline_v": (False, True, False),
    "baseline_h": (True, False, False),
    "cdpm": (True, True, False),
    "mgf": (True, True, True),
}


@pytest.mark.parametrize("name", list(STAGE_PATHS))
def test_stage_table_rows(name):
    """Each row's flags and parameter group, for the ablation grid's four
    configurations and the full model: stage 1 trains the backbone and the
    K base part branches without their attention masks with every path off;
    stage 2 the rest with the backbone frozen (none in `baseline`); stage 3
    everything, with stage 2's paths on."""
    configs = dict(pipeline.ABLATION_CONFIGS)
    assert list(configs) == list(STAGE_PATHS)[:4]
    modules = configs.get(name, dict(with_refinement=True, with_alignment=True,
                                     with_mgf=True))
    net = blank_net(**modules)
    names = [p.name for p in net.parameters()]
    base_owners = {"backbone"} | {f"part{k}" for k in range(1, net.cfg.parts + 1)}
    first = {n for n in names if n.split(".")[0] in base_owners and ".sca." not in n}
    assert {n.split(".")[1] for n in first if n.startswith("part")} == {"reduce", "classifier"}
    rest = set(names) - first
    assert bool(rest) == (name != "baseline")
    refinement, detection, mgf = STAGE_PATHS[name]
    s1, s2, s3 = stage_schedule(net)
    assert [s.name for s in (s1, s2, s3)] == [
        "stage1_baseline", "stage2_new_modules", "stage3_end2end"]
    assert s1.flags == StepFlags(refinement=False, detection=False, mgf=False,
                                 backbone_grad=True)
    assert s2.flags == StepFlags(refinement, detection, mgf, backbone_grad=False)
    assert s3.flags == StepFlags(refinement, detection, mgf, backbone_grad=True)
    assert {p.name for p in s1.params} == first
    assert {p.name for p in s2.params} == rest
    assert [p.name for p in s3.params] == names


# ---------------------------------------------------------------------------
# optimizer


def test_sgd_plain_step():
    opt = SGDMomentum(momentum=0.0)
    from cdpm.layers import Parameter

    p = Parameter("p", np.array([1.0, 2.0]))
    p.grad[...] = [0.5, -1.0]
    opt.step([p], lr=1.0)
    np.testing.assert_allclose(p.value, [0.5, 3.0])


def test_sgd_momentum_unrolled():
    opt = SGDMomentum(momentum=0.9)
    from cdpm.layers import Parameter

    p = Parameter("p", np.array([0.0]))
    for _ in range(2):
        p.grad[...] = [1.0]
        opt.step([p], lr=0.1)
        p.zero_grad()
    # two steps with constant grad g: -0.1*g - 0.1*1.9*g
    np.testing.assert_allclose(p.value, [-0.1 - 0.19])


def test_sgd_zero_grad_moves_only_with_velocity():
    opt = SGDMomentum(momentum=0.9)
    from cdpm.layers import Parameter

    p = Parameter("p", np.array([1.0]))
    opt.step([p], lr=0.5)  # zero grad, zero velocity
    np.testing.assert_allclose(p.value, [1.0])
    p.grad[...] = [1.0]
    opt.step([p], lr=0.5)
    p.zero_grad()
    opt.step([p], lr=0.5)  # zero grad, nonzero velocity keeps moving
    assert p.value[0] < 0.5


# ---------------------------------------------------------------------------
# augmentation


def test_flip_involution():
    img = RNG.random((16, 8, 3))
    np.testing.assert_array_equal(
        augment.flip_horizontal(augment.flip_horizontal(img)), img
    )


def test_translate_shifts_and_pads():
    img = np.zeros((6, 4, 3))
    img[2, 1] = 1.0
    out = augment.translate(img, 2, -1)
    assert out[4, 0, 0] == 1.0
    assert out.sum() == 1.0 * 3
    assert out.shape == img.shape


def test_translate_boundary_bookkeeping():
    """A copy translated by dy pixels has its body rows shifted by dy / 16,
    clamped to the frame."""
    ann = BoundaryAnnotation("a", 10.0, 380.0, 5000, 5000)
    assert body_rows(ann, 8) == (18.0 / 16, 24.0)  # lower boundary clamps to the frame
    ann = BoundaryAnnotation("a", 4.0, 300.0, 5000, 5000)
    assert body_rows(ann, -8) == (0.0, 292.0 / 16)
    assert body_rows(BoundaryAnnotation("a", None, None, 5000, 5000), 5) is None


def test_random_erase_keeps_shape_and_changes_pixels():
    img = np.full((96, 32, 3), 0.5)
    rng = np.random.default_rng(3)
    out = augment.random_erase(img, rng)
    assert out.shape == img.shape
    changed = np.any(out != img, axis=2)
    frac = changed.mean()
    assert 0.0 < frac <= 0.45
    assert np.all(out[changed] >= 0) and np.all(out[changed] <= 1)


def test_offline_shifts_first_is_identity():
    rng = np.random.default_rng(5)
    shifts = augment.offline_shifts(rng, 5)
    assert shifts[0] == (0, 0)
    assert len(shifts) == 5
    assert all(abs(dy) <= 8 and abs(dx) <= 8 for dy, dx in shifts)


def test_augmentation_config_validation():
    with pytest.raises(ValueError):
        AugmentationConfig(translation_copies=0)
    with pytest.raises(ValueError):
        AugmentationConfig(flip_probability=1.5)


# ---------------------------------------------------------------------------
# the train set & batches


def model_cfg(index, **kw):
    base = dict(classes=index.class_count, backbone_channels=(4, 8, 8, 8, 8),
                feature_dim=16, holistic_dim=16, attention_reduction=4)
    base.update(kw)
    return ModelConfig(**base)


def test_build_items_aligned_supervision(tiny_bench):
    index, anns = tiny_bench
    cfg = model_cfg(index)
    train = training.build_train_set(index, anns, cfg, AugmentationConfig(
        translation_copies=1), np.random.default_rng(0))
    assert len(train) == len(index.split("train"))
    assert train.aligned.all()  # synthetic annotations are complete
    assert train.bounds.shape == (len(train), 7)
    soft = alignment.soft_label_matrix(train.bounds)
    offsets, _ = alignment.offset_targets(train.bounds)
    assert soft.shape == (len(train), 21, 7)
    assert offsets.shape == (len(train), 21, 6)
    np.testing.assert_allclose(soft.sum(axis=-1), 1.0, atol=1e-12)


def test_build_items_uniform_when_alignment_disabled(tiny_bench):
    index, anns = tiny_bench
    cfg = model_cfg(index, with_alignment=False)
    aug = AugmentationConfig(translation_copies=1)
    train = training.build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    assert not train.aligned.any()
    np.testing.assert_array_equal(train.tops, np.tile([0, 4, 8, 12, 16, 20], (len(train), 1)))
    batch = compose_batch(train, training.ImageStore(), np.random.default_rng(0), aug, 4,
                          load_images=False)
    assert batch.aligned_idx.size == 0
    offsets, mask = alignment.offset_targets(batch.bounds)
    assert batch.bounds.shape == (0, 7) and alignment.soft_label_matrix(batch.bounds).shape == (0, 21, 7)
    assert offsets.shape == mask.shape == (0, 21, 6)


def test_build_items_copy_shifted_out_of_the_body_trains_uniform(tiny_bench):
    """A valid body in the last 8 rows of pixels, shifted down by 8, leaves
    no body in the frame: that copy trains with uniform division instead of
    failing, and every other copy stays aligned."""
    index, _ = tiny_bench
    anns = {r.image_id: BoundaryAnnotation(r.image_id, 376, 384, 5000, 5000)
            for r in index.split("train")}
    aug = AugmentationConfig(translation_copies=5)
    train = training.build_train_set(index, anns, model_cfg(index), aug,
                                     np.random.default_rng(4))
    emptied = train.shifts[:, 0] == 8
    assert emptied.any()
    np.testing.assert_array_equal(train.aligned, ~emptied)
    np.testing.assert_array_equal(train.tops[emptied],
                                  np.tile([0, 4, 8, 12, 16, 20], (emptied.sum(), 1)))
    # every row once: only the rows with a body get detection targets
    batch = compose_batch(train, training.ImageStore(), np.random.default_rng(0), aug,
                          len(train), load_images=False)
    np.testing.assert_array_equal(batch.aligned_idx, np.flatnonzero(~emptied[batch.rows]))
    assert batch.bounds.shape == ((~emptied).sum(), 7)
    np.testing.assert_array_equal(batch.bounds, train.bounds[batch.rows[batch.aligned_idx]])


@pytest.mark.parametrize("parts", range(1, alignment.MAP_HEIGHT + 1))
def test_every_part_count_reads_the_training_windows(tiny_bench, monkeypatch, parts):
    """Training targets, calibration, descriptors and alignment scoring read
    the same uniform windows, and every step runs, at each part count."""
    index, anns = tiny_bench
    images = np.stack([data.load_image(r.path) for r in index.split("query")])
    gathered = []

    def recording_gather(fmap, tops, height):
        gathered.append((height, tops.copy()))
        return gather_windows(fmap, tops, height)

    monkeypatch.setattr(model, "gather_windows", recording_gather)
    selection = alignment.SelectionConfig()
    mgf = parts == alignment.NUM_PARTS
    cfg = model_cfg(index, parts=parts, with_alignment=False, with_mgf=mgf)
    net = CdpmNetwork(cfg, np.random.default_rng(parts))
    # the uniform division of the parts, then of each granularity ascending
    grans = alignment.GRANULARITIES if mgf else ()
    heights = [alignment.WINDOW_HEIGHT] * parts + [24 // g for g in grans for _ in range(g)]
    uniform = np.concatenate([alignment.layout_tops(alignment.part_bounds(0, 24, parts)),
                              *(np.arange(g) * (24 // g) for g in grans)])
    assert list(net.heights) == heights and len(net.part_branches) == len(heights)
    train = build_train_set(index, anns, cfg, AugmentationConfig(translation_copies=1),
                            np.random.default_rng(0))
    assert not train.aligned.any()
    np.testing.assert_array_equal(train.tops, np.tile(uniform, (len(train), 1)))

    net.calibrate(images)
    gathered.clear()
    desc = net.descriptor(images, selection)
    assert desc.shape == (len(images), cfg.descriptor_dim) and np.all(np.isfinite(desc))
    assert len(gathered) == len(heights)
    for (height, tops), want_height, want_top in zip(gathered, heights, uniform):
        assert height == want_height
        np.testing.assert_array_equal(tops, np.full(len(images), want_top))

    report = pipeline.alignment_report(net, index, anns, selection=selection)
    assert len(report.rows) == parts * 9  # query + gallery images
    for row in report.rows:
        assert row.window == 0 and row.top == uniform[row.part - 1]

    aligned = CdpmNetwork(model_cfg(index, parts=parts), np.random.default_rng(parts))
    aligned.calibrate(images)
    assert aligned.descriptor(images, selection).shape == (len(images), parts * 16)
    report = pipeline.alignment_report(aligned, index, anns, selection=selection)
    assert len(report.rows) == parts * 9
    for row in report.rows:
        assert row.window == row.top + 1 and 0 <= row.top <= 20


def test_build_items_offline_copies_shift_annotations(tiny_bench):
    index, anns = tiny_bench
    cfg = model_cfg(index)
    train = training.build_train_set(index, anns, cfg, AugmentationConfig(
        translation_copies=3), np.random.default_rng(1))
    assert len(train) == 3 * len(index.split("train"))
    offsets, _ = alignment.offset_targets(train.bounds)
    checked = 0
    for base, record in zip(range(0, len(train), 3), index.split("train"), strict=True):
        # rows in split order, each image's three copies together, the original first
        assert [train.records[c] for c in range(base, base + 3)] == [record] * 3
        assert train.shifts[base].tolist() == [0, 0]
        ann = anns[record.image_id]
        for c in range(base + 1, base + 3):
            dy = train.shifts[c, 0]
            if dy == 0:
                continue
            if not (0 <= ann.upper_px + dy and ann.lower_px + dy <= 384):
                continue  # clamped at the frame; pure-shift equivariance broken
            # offsets move with the shifted boundaries
            np.testing.assert_allclose(
                offsets[c] - offsets[base], dy / 16.0 / 4.0, atol=1e-9
            )
            checked += 1
    assert checked > 0


def test_compose_batch_classification(tiny_bench):
    index, anns = tiny_bench
    cfg = model_cfg(index)
    aug = AugmentationConfig(translation_copies=1)
    train = training.build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    store = training.ImageStore()
    batch = compose_batch(train, store, np.random.default_rng(3), aug, batch_size=8)
    assert batch.images.shape == (8, 384, 128, 3)
    assert batch.labels.shape == (8,)
    assert batch.bounds.shape == (batch.aligned_idx.size, 7)


def test_compose_batch_triplet_structure(tiny_bench):
    index, anns = tiny_bench
    cfg = model_cfg(index)
    aug = AugmentationConfig(translation_copies=1)
    train = training.build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    store = training.ImageStore()
    tri = TripletConfig(identities_per_batch=3, images_per_identity=4)
    batch = compose_batch(train, store, np.random.default_rng(3), aug, 12, tri)
    uniq, counts = np.unique(batch.labels, return_counts=True)
    assert len(uniq) == 3 and np.all(counts == 4)
    too_greedy = TripletConfig(identities_per_batch=50, images_per_identity=2)
    with pytest.raises(data.DataError):
        compose_batch(train, store, np.random.default_rng(3), aug, 100, too_greedy)


def test_compose_batch_deterministic(tiny_bench):
    index, anns = tiny_bench
    cfg = model_cfg(index)
    aug = AugmentationConfig(translation_copies=2)
    train = training.build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    store = training.ImageStore()
    a = compose_batch(train, store, np.random.default_rng(7), aug, 6)
    b = compose_batch(train, store, np.random.default_rng(7), aug, 6)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.labels, b.labels)


def _feed(h, *arrays):
    """Hash each array's dtype, shape and bytes; None and empty arrays add nothing."""
    for a in arrays:
        if a is not None and np.size(a):
            a = np.ascontiguousarray(a)
            h.update(f"{a.dtype.str}{a.shape}".encode() + a.tobytes())


def test_train_copies_and_batch_draws_keep_their_bits(tiny_bench):
    """The offline copies' shifts, alignment, tops and detection targets, and
    16 uniform and triplet batches drawn with and without images, hash to
    the digest of the one-object-per-copy implementation with its
    granularity tops placed by the descriptors' rule from the part tops. One
    train image has no annotation, so some copies and drawn rows are not
    aligned."""
    index, anns = tiny_bench
    anns = dict(anns)
    del anns[index.split("train")[5].image_id]
    cfg = model_cfg(index, with_mgf=True)
    aug = AugmentationConfig(translation_copies=3)
    train = build_train_set(index, anns, cfg, aug, np.random.default_rng(2))
    h = hashlib.sha256("\n".join(r.image_id for r in train.records).encode())
    assert 0 < train.aligned.sum() < len(train)
    _feed(h, train.shifts, train.aligned, train.tops)
    bounds = train.bounds[train.aligned]
    _feed(h, alignment.soft_label_matrix(bounds), *alignment.offset_targets(bounds))
    store, rng = training.ImageStore(), np.random.default_rng(7)
    tri = TripletConfig(identities_per_batch=3, images_per_identity=2)
    unaligned = 0
    for _ in range(4):
        for triplet in (None, tri):
            for load_images in (True, False):
                batch = compose_batch(train, store, rng, aug, 6, triplet, load_images)
                unaligned += 6 - batch.aligned_idx.size
                _feed(h, batch.rows, batch.labels, batch.tops, batch.aligned_idx,
                      alignment.soft_label_matrix(batch.bounds),
                      *alignment.offset_targets(batch.bounds), batch.images)
    assert unaligned > 0
    assert h.hexdigest() == "97c7a099e19e6b1cbf85ee89af6f35ffc4c0b5e3152cbfd5d9e307ea5cbaa023"


def test_compose_batch_rejects_empty(tmp_path):
    empty = build_train_set(data.DatasetIndex(tmp_path), {}, ModelConfig(classes=2),
                            AugmentationConfig(), np.random.default_rng(0))
    assert len(empty) == 0 and empty.tops.shape == (0, 6) and empty.bounds.shape == (0, 7)
    with pytest.raises(data.DataError):
        compose_batch(empty, training.ImageStore(), np.random.default_rng(0),
                      AugmentationConfig(), 4)


# ---------------------------------------------------------------------------
# train step and full runs


def test_train_step_sums_loss_f_over_every_branch_group(tiny_bench):
    """With multi-granularity features on, loss_f covers the 6+2+3+4 part
    branches and each of them receives a gradient; off, only the 6 parts."""
    index, anns = tiny_bench
    cfg = model_cfg(index, with_mgf=True)
    net = CdpmNetwork(cfg, np.random.default_rng(4))
    aug = AugmentationConfig(translation_copies=1)
    train = build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    tri = TripletConfig(identities_per_batch=2, images_per_identity=2)
    batch = compose_batch(train, training.ImageStore(), np.random.default_rng(5), aug, 4,
                          tri)
    fmap, _ = net.backbone.forward(batch.images)
    sums = {}
    for mgf in (False, True):
        net.zero_grad()
        flags = StepFlags(refinement=True, detection=False, mgf=mgf, backbone_grad=False)
        sums[mgf] = training.train_step(net, batch, flags, LossWeights(), tri,
                                        fmap=fmap)["loss_f"]
    expected, first = 0.0, 0
    for count, height in ((6, 4), (2, 12), (3, 8), (4, 6)):  # parts, then g = 2, 3, 4
        group = 0.0
        for k in range(first, first + count):
            branch = net.part_branches[k]
            window = gather_windows(fmap, batch.tops[:, k], height)
            _, scores, _ = branch.forward(window, True)
            group += losses.part_softmax_loss_with_grad(scores, batch.labels)[0]
            assert all(np.any(p.grad != 0) for p in branch.reduce.parameters())
        expected += group
        first += count
    assert first == len(net.part_branches) == batch.tops.shape[1]
    assert sums[True] == expected > sums[False]


def test_mgf_step_needs_a_p_by_a_batch(tiny_bench):
    """The stage's mgf flag alone turns the triplet term on, so an mgf step
    on a uniformly drawn batch is refused by the triplet loss rather than
    trained without the term."""
    index, anns = tiny_bench
    cfg = model_cfg(index, with_mgf=True)
    net = CdpmNetwork(cfg, np.random.default_rng(4))
    aug = AugmentationConfig(translation_copies=1)
    train = build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    batch = compose_batch(train, training.ImageStore(), np.random.default_rng(5), aug, 4)
    tri = TripletConfig(identities_per_batch=2, images_per_identity=2)
    assert sorted(np.unique(batch.labels, return_counts=True)[1]) != [2, 2]
    fmap, _ = net.backbone.forward(batch.images)
    flags = StepFlags(refinement=True, detection=True, mgf=True, backbone_grad=False)
    with pytest.raises(ValueError, match="batch must hold 2 identities x 2 images"):
        training.train_step(net, batch, flags, LossWeights(), tri, fmap=fmap)


def test_granularity_windows_follow_the_part_windows_in_training_as_in_descriptors(
    tiny_bench, monkeypatch
):
    """One window rule: each aligned train row's granularity tops are
    `branch_tops` of its part tops, and given those part tops,
    `feature_descriptor` gathers the (height, top) windows a train step
    gathers for the same rows."""
    index, anns = tiny_bench
    cfg = model_cfg(index, with_mgf=True)
    parts = cfg.parts
    aug = AugmentationConfig(translation_copies=2)
    train = build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    assert train.aligned.all()
    np.testing.assert_array_equal(
        train.tops[:, parts:],
        alignment.branch_tops(train.tops[:, :parts], alignment.GRANULARITIES)[:, parts:],
    )

    gathered = []

    def recording_gather(fmap, tops, height):
        gathered.append((height, tops.tolist()))
        return gather_windows(fmap, tops, height)

    monkeypatch.setattr(training, "gather_windows", recording_gather)
    monkeypatch.setattr(model, "gather_windows", recording_gather)
    net = CdpmNetwork(cfg, np.random.default_rng(4))
    tri = TripletConfig(identities_per_batch=2, images_per_identity=2)
    batch = compose_batch(train, training.ImageStore(), np.random.default_rng(5), aug, 4,
                          tri)
    fmap = net.backbone.features(batch.images)
    flags = StepFlags(refinement=True, detection=False, mgf=True, backbone_grad=False)
    training.train_step(net, batch, flags, LossWeights(), tri, fmap=fmap)
    stepped, gathered[:] = list(gathered), []
    net.feature_descriptor(fmap, batch.tops[:, :parts])
    assert len(stepped) == len(net.part_branches) and gathered == stepped


def test_train_step_takes_fmap_exactly_when_backbone_is_frozen(tiny_bench):
    """A frozen step needs precomputed features; a backbone step refuses them."""
    index, anns = tiny_bench
    cfg = model_cfg(index)
    net = CdpmNetwork(cfg, np.random.default_rng(4))
    aug = AugmentationConfig(translation_copies=1)
    train = build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    batch = compose_batch(train, training.ImageStore(), np.random.default_rng(5), aug, 4)
    fmap, _ = net.backbone.forward(batch.images)
    for backbone_grad, given in ((False, None), (True, fmap)):
        flags = StepFlags(refinement=False, detection=False, mgf=False,
                          backbone_grad=backbone_grad)
        with pytest.raises(ValueError, match="fmap"):
            training.train_step(net, batch, flags, LossWeights(), TripletConfig(),
                                fmap=given)


def test_detection_targets_and_window_gradient_are_built_only_where_read(
    tiny_bench, monkeypatch
):
    """`compose_batch` builds no detection target; of the schedule's steps,
    stage 1 builds none, frozen stage 2 builds them once and no window-vector
    gradient, and stage 3 makes each call once."""
    index, anns = tiny_bench
    cfg = model_cfg(index, with_mgf=True)
    counted = ((alignment, "soft_label_matrix"), (alignment, "offset_targets"),
               (CdpmNetwork, "window_vectors_backward"))
    calls = collections.Counter()
    for owner, name in counted:
        def counting(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counting)

    def counts():
        return tuple(calls[name] for _, name in counted)

    net = CdpmNetwork(cfg, np.random.default_rng(4))
    aug = AugmentationConfig(translation_copies=1)
    train = build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    tri = TripletConfig(identities_per_batch=3, images_per_identity=2)
    for triplet in (None, tri):
        for load_images in (True, False):
            compose_batch(train, training.ImageStore(), np.random.default_rng(5), aug, 6,
                          triplet, load_images)
    batch = compose_batch(train, training.ImageStore(), np.random.default_rng(5), aug, 6, tri)
    assert batch.aligned_idx.size and counts() == (0, 0, 0)
    fmap = net.backbone.features(batch.images)
    stage1, stage2, stage3 = (s.flags for s in stage_schedule(net))
    for flags, given, want in ((stage1, None, (0, 0, 0)), (stage2, fmap, (1, 1, 0)),
                               (stage3, None, (1, 1, 1))):
        calls.clear()
        training.train_step(net, batch, flags, LossWeights(), tri, fmap=given)
        assert counts() == want, flags


def test_train_step_end_to_end_gradient_sample(tiny_bench):
    """Analytic gradients of the total objective match finite differences."""
    index, anns = tiny_bench
    cfg = model_cfg(index, with_mgf=True)
    net = CdpmNetwork(cfg, np.random.default_rng(4))
    aug = AugmentationConfig(translation_copies=1, flip_probability=0.0,
                             erase_probability=0.0)
    train = training.build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    store = training.ImageStore()
    tri = TripletConfig(identities_per_batch=3, images_per_identity=2)
    batch = compose_batch(train, store, np.random.default_rng(5), aug, 6, tri)
    flags = StepFlags(refinement=True, detection=True, mgf=True, backbone_grad=True)
    weights = LossWeights(lambda1=0.7, lambda2=1.3)

    def total():
        net.zero_grad()
        terms = training.train_step(net, batch, flags, weights, tri)
        return terms["total"]

    base = total()  # leaves gradients populated
    rng = np.random.default_rng(9)
    params = net.parameters()
    picked = rng.choice(len(params), size=12, replace=False)
    step = 1e-5
    for idx_p in picked:
        p = params[idx_p]
        grads = p.grad.copy()
        flat = p.value.ravel()
        i = int(rng.integers(flat.size))
        analytic = grads.ravel()[i]
        orig = flat[i]
        flat[i] = orig + step
        hi = training.train_step(net, batch, flags, weights, tri)["total"]
        flat[i] = orig - step
        net.zero_grad()
        lo = training.train_step(net, batch, flags, weights, tri)["total"]
        flat[i] = orig
        numeric = (hi - lo) / (2 * step)
        scale = max(abs(analytic), abs(numeric), 1e-6)
        assert abs(analytic - numeric) / scale < 1e-4, (
            f"{p.name}[{i}]: analytic {analytic:.3e} vs numeric {numeric:.3e}"
        )
        net.zero_grad()
        total()  # restore gradients for the next sample


@pytest.mark.parametrize("flags", [
    StepFlags(refinement=False, detection=False, mgf=False, backbone_grad=True),
    StepFlags(refinement=True, detection=True, mgf=True, backbone_grad=True),
], ids=["stage1", "stage3"])
def test_train_step_and_descriptor_bit_identical_with_reference_convs(
    tiny_bench, monkeypatch, flags
):
    """Against the unblocked convolution and the layer-by-layer backbone
    forward and backward kept in tests/conv_reference.py, the full model's
    descriptors and every gradient outside the backbone are bit-identical,
    and the backbone's kernel and bias gradients, which sum per-block
    partials, are within 1e-12 relative; one block worker and two give the
    same bits."""
    index, anns = tiny_bench
    cfg = ModelConfig(classes=index.class_count, with_mgf=True)
    aug = AugmentationConfig(translation_copies=1)
    train = training.build_train_set(index, anns, cfg, aug, np.random.default_rng(0))
    tri = TripletConfig(identities_per_batch=2, images_per_identity=2)
    batch = compose_batch(train, training.ImageStore(), np.random.default_rng(5), aug,
                          4, tri)

    def run():
        net = CdpmNetwork(cfg, np.random.default_rng(4))
        training.train_step(net, batch, flags, LossWeights(), tri)
        grads = {p.name: p.grad for p in net.parameters()}
        return net.descriptor(batch.images[:2]), grads

    got = {}
    for workers in (1, 2):
        monkeypatch.setattr(ops, "WORKERS", workers)
        got[workers] = run()
    monkeypatch.setattr(
        ops, "conv2d",
        lambda x, w, b, stride=1, padding=1: conv_reference.conv2d(x, w, b, stride, padding),
    )
    stacks = []

    def reference_stack(*args, **kwargs):
        stacks.append(args[-1])
        acts = conv_reference.conv_relu_stack(*args, **kwargs)
        return lambda: acts

    monkeypatch.setattr(ops, "start_conv_relu_stack", reference_stack)
    monkeypatch.setattr(ops, "conv_relu_stack_backward", conv_reference.conv_relu_stack_backward)
    monkeypatch.setattr(
        ops, "conv2d_backward",
        lambda x, w, grad_out, stride=1, padding=1, need_input_grad=True: (
            conv_reference.conv2d_backward(x, w, grad_out, stride, padding, None,
                                           need_input_grad)
        ),
    )
    want_desc, want_grads = run()
    assert stacks == [True, False]  # the train step's backbone pass, then the descriptor's
    one_desc, one_grads = got[1]
    two_desc, two_grads = got[2]
    assert np.array_equal(one_desc, want_desc) and np.array_equal(two_desc, want_desc)
    assert one_grads.keys() == two_grads.keys() == want_grads.keys()
    backbone = 0
    for name, want_grad in want_grads.items():
        assert np.array_equal(one_grads[name], two_grads[name]), name
        if name.startswith("backbone."):
            backbone += 1
            err = np.max(np.abs(one_grads[name] - want_grad))
            assert err <= 1e-12 * np.max(np.abs(want_grad)), name
        else:
            assert np.array_equal(one_grads[name], want_grad), name
    assert backbone == 10  # five convs' kernels and biases


def test_run_aborts_with_dump_when_loss_diverges(tiny_bench, tmp_path, monkeypatch):
    index, anns = tiny_bench
    cfg = model_cfg(index)
    settings = TrainSettings(seed=0, epoch_scale=0.02, batch_size=6,
                             augmentation=AugmentationConfig(translation_copies=1))
    import cdpm.training as tr

    def nan_step(net, batch, flags, weights, triplet, fmap=None):
        return {"loss_f": np.nan, "loss_c": 0.0, "loss_r": 0.0, "loss_g": 0.0,
                "total": np.nan}

    monkeypatch.setattr(tr, "train_step", nan_step)
    with pytest.raises(tr.TrainingDiverged, match="non-finite loss"):
        run_training(index, cfg, settings, tmp_path / "diverge")
    assert (tmp_path / "diverge" / "diverged.cdpm").exists()


# ---------------------------------------------------------------------------
# uint8 pixels into the backbone


def calibrated_full_model(index):
    net = CdpmNetwork(ModelConfig(classes=index.class_count, with_mgf=True),
                      np.random.default_rng(6))
    net.calibrate(np.stack([data.load_image(r.path) for r in index.split("train")[:8]]))
    return net


def test_uint8_pixels_give_the_bits_of_load_image_floats(tiny_bench):
    """Stored pixels and `load_image` floats give the same backbone
    activations, window picks and descriptors, bit for bit."""
    index, _ = tiny_bench
    net = calibrated_full_model(index)
    records = index.split("query") + index.split("gallery")
    pixels = np.stack([data.read_person_image(r.path) for r in records])
    floats = np.stack([data.load_image(r.path) for r in records])
    assert pixels.dtype == np.uint8
    fmap = net.backbone.features(pixels)
    assert np.array_equal(fmap, net.backbone.features(floats))
    selection = alignment.SelectionConfig()
    assert np.array_equal(net.part_tops(fmap, selection),
                          net.part_tops(net.backbone.features(floats), selection))
    assert np.array_equal(net.descriptor(pixels), net.descriptor(floats))
    (got, got_acts), (want, want_acts) = (net.backbone.forward(x) for x in (pixels, floats))
    assert np.array_equal(got, want)
    assert all(np.array_equal(g, w) for g, w in zip(got_acts, want_acts, strict=True))


def test_feature_cache_reads_pixels_with_the_bits_of_floats(tiny_bench):
    """Stage 2's feature cache over translated copies equals the backbone
    run on each copy's float intensities."""
    index, anns = tiny_bench
    net = calibrated_full_model(index)
    aug = AugmentationConfig(translation_copies=3)
    train = build_train_set(index, anns, net.cfg, aug, np.random.default_rng(2))
    assert train.shifts.any()
    store = training.ImageStore()
    assert len(train) > 2 * model.FEATURE_CHUNK
    cache = training._build_feature_cache(net, train, np.arange(len(train)), store)
    floats = np.stack([data.to_unit_float(training.load_copy(train, r, store))
                       for r in range(len(train))])
    assert np.array_equal(cache, net.backbone.features(floats))
    rows = np.array([5, 0, 5, len(train) - 1])  # one frozen-backbone batch
    assert np.array_equal(training._build_feature_cache(net, train, rows, store), cache[rows])


def test_image_store_hands_out_read_only_pixels(tiny_bench):
    index, _ = tiny_bench
    store = training.ImageStore()
    path = index.split("train")[0].path
    pixels = store.load(path)
    assert pixels.dtype == np.uint8 and not pixels.flags.writeable
    assert store.load(path) is pixels
    assert np.array_equal(pixels, data.read_person_image(path))


def test_extract_peak_memory_below_one_float_chunk(tiny_bench, monkeypatch):
    """A full descriptor or alignment chunk of stored pixels stays uint8: each
    call's traced peak is below the float64 copy of one chunk (~28 MB),
    which alone the float path held twice."""
    monkeypatch.setattr(ops, "WORKERS", 1)
    index, anns = tiny_bench
    net = calibrated_full_model(index)
    assert len(index.split("train")) >= model.FEATURE_CHUNK
    float_chunk = model.FEATURE_CHUNK * 384 * 128 * 3 * 8
    selection = alignment.SelectionConfig()
    runs = {
        "extract": lambda: pipeline.extract_descriptors(net, index, "train", selection),
        "align": lambda: pipeline.alignment_report(net, index, anns, ("train",), selection),
    }
    for name, run in runs.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < float_chunk, f"{name}: peak {peak / 1e6:.1f} MB"


@pytest.fixture(scope="module")
def full_model(tiny_bench):
    return calibrated_full_model(tiny_bench[0])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk", [30, 8, 7], ids=["one_chunk", "exact_multiple", "remainder"])
def test_pipelined_chunks_give_the_bits_of_one_chunk_at_a_time(tiny_bench, full_model,
                                                               monkeypatch, workers, chunk):
    """Descriptors and alignment rows of the pipelined chunk loop equal
    `net.descriptor` and `net.part_tops` run on one chunk at a time."""
    monkeypatch.setattr(ops, "WORKERS", workers)
    monkeypatch.setattr(model, "FEATURE_CHUNK", chunk)
    index, anns = tiny_bench
    net, selection = full_model, alignment.SelectionConfig()
    records = index.split("train")
    assert len(records) == 24
    got = pipeline.extract_descriptors(net, index, "train", selection)
    report = pipeline.alignment_report(net, index, anns, ("train",), selection)
    usable = [r for r in records if body_rows(anns.get(r.image_id)) is not None]
    want_descs, want_rows = {}, []
    for i in range(0, len(records), chunk):
        pixels = np.stack([data.read_person_image(r.path) for r in records[i : i + chunk]])
        want_descs.update(zip([r.image_id for r in records[i : i + chunk]],
                              net.descriptor(pixels, selection)))
    for i in range(0, len(usable), chunk):
        pixels = np.stack([data.read_person_image(r.path) for r in usable[i : i + chunk]])
        tops = net.part_tops(net.backbone.features(pixels), selection)
        want_rows += [(r.image_id, k + 1, int(t) + 1, float(t))
                      for r, row in zip(usable[i : i + chunk], tops) for k, t in enumerate(row)]
    assert list(got) == list(want_descs)
    assert all(np.array_equal(got[key], want_descs[key]) for key in got)
    assert [(r.image_id, r.part, r.window, r.top) for r in report.rows] == want_rows


#: sha256 of the repr of `alignment_report`'s rows as tuples over the tiny
#: bench's train, query and gallery images with every third one unannotated
ALIGNMENT_ROWS_DIGEST = "0c4573c9825d890f504f3af94c284a8ddc80465695443d78ae52591485f2dc8b"


def test_alignment_rows_keep_their_bits_when_images_lack_annotations(tiny_bench, full_model):
    """The 22 annotated of 33 images fill other chunks than all 33 do; the
    rows hash as when each chunk of all records was filtered instead."""
    index, anns = tiny_bench
    splits = ("train", "query", "gallery")
    records = [r for split in splits for r in index.split(split)]
    kept = {r.image_id: anns[r.image_id] for i, r in enumerate(records) if i % 3}
    assert len(records) > model.FEATURE_CHUNK >= len(kept)
    report = pipeline.alignment_report(full_model, index, kept, splits)
    rows = [(r.image_id, r.part, r.window, r.top, r.iou, r.uniform_iou) for r in report.rows]
    assert [r[0] for r in rows[::full_model.cfg.parts]] == list(kept)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == ALIGNMENT_ROWS_DIGEST


def test_alignment_report_without_scorable_images_starts_no_pass(tiny_bench, block_passes):
    """When no image of the requested splits has body rows, alignment
    scoring is a data error naming the splits and the annotation file,
    raised before any backbone pass starts."""
    index, anns = tiny_bench
    net = CdpmNetwork(model_cfg(index), np.random.default_rng(0))
    gallery_only = {r.image_id: anns[r.image_id] for r in index.split("gallery")}
    with pytest.raises(data.DataError) as caught:
        pipeline.alignment_report(net, index, gallery_only, ("train", "query"))
    assert str(caught.value) == ("no train or query image offers aligned ground truth to "
                                 f"score in {index.annotations_path}")
    assert block_passes == []


@pytest.mark.parametrize("heads", [True, False], ids=["detected", "uniform"])
def test_one_pass_gives_the_descriptors_and_alignment_rows_of_two(tiny_bench, full_model,
                                                                  monkeypatch, heads):
    """`_describe` over query + gallery gives `extract_descriptors`' bits, and
    its part tops of the scored records give `_score_alignment` the rows and
    means of `alignment_report`, with chunks that straddle the query/gallery
    border and a third of the images unannotated. At a chunk of 7 no chunk
    holds a single image, whose dense layers take numpy's matrix-vector path
    and so other bits."""
    monkeypatch.setattr(model, "FEATURE_CHUNK", 7)
    index, anns = tiny_bench
    net = full_model if heads else CdpmNetwork(model_cfg(index, with_alignment=False),
                                               np.random.default_rng(7))
    selection = alignment.SelectionConfig()
    records = index.split("query") + index.split("gallery")
    kept = {r.image_id: anns[r.image_id] for i, r in enumerate(records) if i % 3}
    descs, tops = pipeline._describe(net, records, selection)
    want = {**pipeline.extract_descriptors(net, index, "query", selection),
            **pipeline.extract_descriptors(net, index, "gallery", selection)}
    assert list(want) == [r.image_id for r in records]
    assert len(descs) == len(want)
    assert all(np.array_equal(got, vec) for got, vec in zip(descs, want.values()))
    assert tops.shape == (len(records), net.cfg.parts)
    scored, spans = pipeline._scored_records(index, kept, ("query", "gallery"))
    got = pipeline._score_alignment(net, scored, spans,
                                    tops[[r.image_id in kept for r in records]])
    report = pipeline.alignment_report(net, index, kept, selection=selection)
    assert len(report.rows) == len(kept) * net.cfg.parts
    assert [dataclasses.astuple(r) for r in got.rows] == [dataclasses.astuple(r)
                                                          for r in report.rows]
    assert (got.mean_iou, got.uniform_mean_iou) == (report.mean_iou, report.uniform_mean_iou)


def test_chunks_are_near_equal_slices(monkeypatch):
    """N items make ceil(N / FEATURE_CHUNK) chunks, in order, of at most
    FEATURE_CHUNK items and at most one item apart in size."""
    monkeypatch.setattr(model.ToyBackbone, "_stack", lambda self, images, keep: lambda: [images])
    backbone = blank_net().backbone
    for n in range(100):
        chunks = [chunk for chunk, _ in backbone.chunk_features(list(range(n)), list)]
        sizes = [len(chunk) for chunk in chunks] or [0]
        assert sum(chunks, []) == list(range(n))
        assert len(chunks) == -(-n // model.FEATURE_CHUNK)
        assert max(sizes) - min(sizes) <= 1 and max(sizes) <= model.FEATURE_CHUNK


def test_no_chunk_holds_a_lone_image(tiny_bench, full_model, monkeypatch):
    """At a chunk of 4 the 9 query + gallery images make chunks of 3 + 3 + 3,
    not 4 + 4 + 1, so `_describe` over them gives the bits of
    `extract_descriptors` over each split; a lone image's dense layers would
    take numpy's matrix-vector path."""
    monkeypatch.setattr(model, "FEATURE_CHUNK", 4)
    index, _ = tiny_bench
    selection = alignment.SelectionConfig()
    records = index.split("query") + index.split("gallery")
    assert len(records) == 9
    descs, _ = pipeline._describe(full_model, records, selection)
    want = [vec for split in ("query", "gallery")
            for vec in pipeline.extract_descriptors(full_model, index, split, selection).values()]
    assert all(np.array_equal(got, vec) for got, vec in zip(descs, want, strict=True))


def test_ablation_runs_one_backbone_pass_per_trained_configuration(tiny_bench, tmp_path,
                                                                   monkeypatch):
    """Once a configuration's training ends, exactly one chunk loop starts
    before the next one trains, over the query then the gallery records."""
    index, _ = tiny_bench
    events, training = [], [False]
    trained, chunk_features = pipeline.run_training, model.ToyBackbone.chunk_features

    def recording_training(*args, **kwargs):
        training[0] = True
        try:
            return trained(*args, **kwargs)
        finally:
            training[0] = False
            events.append("trained")

    def recording_chunks(self, items, read):
        if not training[0]:
            events.append([r.image_id for r in items])
        return chunk_features(self, items, read)

    monkeypatch.setattr(pipeline, "run_training", recording_training)
    monkeypatch.setattr(model.ToyBackbone, "chunk_features", recording_chunks)
    cfg = apply_assignments(Config(data_root=str(index.root)), {
        "train.epoch_scale": "0.02", "train.batch_size": "6",
        "augment.translation_copies": "1", "model.feature_dim": "16"})
    rows = pipeline.run_ablation(cfg, tmp_path / "runs")
    test_ids = [r.image_id for r in index.split("query") + index.split("gallery")]
    assert [r.name for r in rows] == [name for name, _ in pipeline.ABLATION_CONFIGS]
    assert events == ["trained", test_ids] * len(rows)


def test_stopping_early_joins_the_backbone_pass_in_flight(tiny_bench, full_model,
                                                           block_passes, monkeypatch):
    """Closing the chunk loop after its first chunk joins the second chunk's
    backbone pass, which was started before the first chunk was yielded."""
    monkeypatch.setattr(model, "FEATURE_CHUNK", 4)
    records = tiny_bench[0].split("train")
    chunks = full_model.backbone.chunk_features(records[:12], pipeline._read_pixels)
    chunk, fmap = next(chunks)
    assert chunk == records[:4] and fmap.shape == (4, 24, 8, 64)
    assert block_passes == [True, False]
    chunks.close()
    assert block_passes == [True, True]


def test_feature_cache_read_error_joins_every_pass(tiny_bench, block_passes, monkeypatch):
    """A stage-2 cache build whose chunk 2 holds an unreadable copy raises
    that error, and chunk 1's pass, started before the read, has ended."""
    monkeypatch.setattr(model, "FEATURE_CHUNK", 4)
    index, anns = tiny_bench
    net = CdpmNetwork(model_cfg(index), np.random.default_rng(0))
    train = build_train_set(index, anns, net.cfg, AugmentationConfig(translation_copies=1),
                            np.random.default_rng(0))
    bad = train.records[5].path

    class FailingStore(training.ImageStore):
        def load(self, path):
            if path == bad:
                raise data.DataError(f"{path}: truncated pixel data")
            return super().load(path)

    with pytest.raises(data.DataError, match="truncated pixel data"):
        training._build_feature_cache(net, train, np.arange(len(train)), FailingStore())
    assert block_passes == [True]


@pytest.fixture(scope="module")
def tiny_run(tiny_bench, tmp_path_factory):
    index, _ = tiny_bench
    cfg = model_cfg(index)
    settings = TrainSettings(seed=3, epoch_scale=0.04, batch_size=8,
                             augmentation=AugmentationConfig(translation_copies=1))
    out = tmp_path_factory.mktemp("run")
    result = run_training(index, cfg, settings, out)
    return index, cfg, settings, out, result


def test_run_training_writes_stage_checkpoints(tiny_run):
    _, _, _, out, result = tiny_run
    for stage in ("stage1_baseline", "stage2_new_modules", "stage3_end2end"):
        assert (out / f"{stage}.cdpm").exists()
    assert result.final_checkpoint.exists()
    assert (out / "train_log.csv").exists()
    stages = [r["stage"] for r in result.log_rows]
    assert stages == sorted(stages, key=stages.index)  # stage order preserved
    assert {r["stage"] for r in result.log_rows} == {
        "stage1_baseline", "stage2_new_modules", "stage3_end2end"
    }


def test_stage2_freezes_baseline_parameters(tiny_run):
    _, _, _, out, _ = tiny_run
    stage1 = CdpmNetwork.load(out / "stage1_baseline.cdpm")
    stage2 = CdpmNetwork.load(out / "stage2_new_modules.cdpm")
    frozen = {p.name for p in stage1.baseline_parameters()}
    p1 = {p.name: p.value for p in stage1.parameters()}
    p2 = {p.name: p.value for p in stage2.parameters()}
    for name in frozen:
        np.testing.assert_array_equal(p1[name], p2[name])
    moved = [
        n for n in p2 if n not in frozen and not np.array_equal(p1[n], p2[n])
    ]
    assert moved  # the new modules actually trained


def test_stage1_leaves_new_modules_at_init(tiny_run):
    index, cfg, settings, out, _ = tiny_run
    init_net = CdpmNetwork(cfg, np.random.default_rng(
        np.random.SeedSequence(settings.seed).spawn(3)[0]
    ))
    stage1 = CdpmNetwork.load(out / "stage1_baseline.cdpm")
    init_params = {p.name: p.value for p in stage_schedule(init_net)[1].params}
    for p in stage_schedule(stage1)[1].params:
        np.testing.assert_array_equal(p.value, init_params[p.name])


def test_baseline_config_skips_stage2(tiny_bench, tmp_path):
    index, _ = tiny_bench
    cfg = model_cfg(index, with_refinement=False, with_alignment=False)
    settings = TrainSettings(seed=1, epoch_scale=0.02, batch_size=6,
                             augmentation=AugmentationConfig(translation_copies=1))
    result = run_training(index, cfg, settings, tmp_path / "base")
    stages = {r["stage"] for r in result.log_rows}
    assert "stage2_new_modules" not in stages
    assert not (tmp_path / "base" / "stage2_new_modules.cdpm").exists()


@pytest.fixture(scope="module")
def recorded_run(tiny_bench, tmp_path_factory):
    """An mgf run of 24 copies at batch_size 8 but P x A = 3 x 2, each stage
    one epoch, with its own temporary directory. Records, per stage, each
    step's rows and fmap and whether a backbone pass started during it; the
    items of every chunk loop; and each feature cache built."""
    index, _ = tiny_bench
    cfg = model_cfg(index, with_mgf=True)
    settings = TrainSettings(
        seed=5, epoch_scale=0.02, batch_size=8,
        triplet=TripletConfig(identities_per_batch=3, images_per_identity=2),
        augmentation=AugmentationConfig(translation_copies=1),
    )
    stages = {s.flags: s.name for s in stage_schedule(CdpmNetwork(cfg))}
    steps, loops, caches, passes = collections.defaultdict(list), [], [], [0]
    step, build = training.train_step, training._build_feature_cache
    chunk_features, stack = model.ToyBackbone.chunk_features, model.ToyBackbone._stack

    def recording_step(net, batch, flags, *args, fmap=None):
        before = passes[0]
        terms = step(net, batch, flags, *args, fmap=fmap)
        steps[stages[flags]].append((batch.rows, None if fmap is None else fmap.copy(),
                                     passes[0] > before))
        return terms

    def recording_build(*args):
        caches.append(np.array(build(*args)))
        return caches[-1]

    def recording_chunks(self, items, read):
        loops.append(list(items))
        return chunk_features(self, items, read)

    def counting_stack(self, images, keep):
        passes[0] += 1
        return stack(self, images, keep)

    out, tmp = tmp_path_factory.mktemp("recorded"), tmp_path_factory.mktemp("tmp")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(training, "train_step", recording_step)
        mp.setattr(training, "_build_feature_cache", recording_build)
        mp.setattr(model.ToyBackbone, "chunk_features", recording_chunks)
        mp.setattr(model.ToyBackbone, "_stack", counting_stack)
        mp.setattr(tempfile, "tempdir", str(tmp))
        run_training(index, cfg, settings, out)
    return steps, loops, caches, out, tmp


def test_triplet_stages_size_their_epochs_by_the_batch_they_draw(recorded_run):
    """Stage 1 draws batch_size rows a step, the mgf stages P x A: each
    epoch is 24 // 8 steps in stage 1 and 24 // 6 in stages 2 and 3."""
    steps = recorded_run[0]
    assert {name: [len(rows) for rows, _, _ in taken] for name, taken in steps.items()} == {
        "stage1_baseline": [8] * 3, "stage2_new_modules": [6] * 4, "stage3_end2end": [6] * 4}


def test_frozen_stage_reads_one_feature_cache(recorded_run):
    """The frozen stage starts one chunk loop, over every row, before its
    steps; no step of it starts a backbone pass, and each step's fmap is its
    rows of that cache. The stages that train the backbone run it per step."""
    steps, loops, caches, _, _ = recorded_run
    assert loops == [list(range(24))] and len(caches) == 1
    for rows, fmap, backbone_ran in steps["stage2_new_modules"]:
        assert not backbone_ran and np.array_equal(fmap, caches[0][rows])
    assert all(ran for name in ("stage1_baseline", "stage3_end2end")
               for _, _, ran in steps[name])


def test_run_leaves_only_its_outputs(recorded_run):
    """The feature cache's file is unlinked: the output directory holds the
    run's checkpoints and log, and the temporary directory nothing."""
    _, _, _, out, tmp = recorded_run
    assert sorted(p.name for p in out.iterdir()) == [
        "final.cdpm", "stage1_baseline.cdpm", "stage2_new_modules.cdpm",
        "stage3_end2end.cdpm", "train_log.csv"]
    assert list(tmp.iterdir()) == []


def test_run_training_bit_identical_for_same_seed(tiny_bench, tmp_path):
    index, _ = tiny_bench
    cfg = model_cfg(index)
    settings = TrainSettings(seed=11, epoch_scale=0.02, batch_size=6,
                             augmentation=AugmentationConfig(translation_copies=2))
    a = run_training(index, cfg, settings, tmp_path / "a")
    b = run_training(index, cfg, settings, tmp_path / "b")
    fa = (tmp_path / "a" / "final.cdpm").read_bytes()
    fb = (tmp_path / "b" / "final.cdpm").read_bytes()
    assert fa == fb
    la = (tmp_path / "a" / "train_log.csv").read_bytes()
    lb = (tmp_path / "b" / "train_log.csv").read_bytes()
    assert la == lb
    c = run_training(
        index, cfg,
        TrainSettings(seed=12, epoch_scale=0.02, batch_size=6,
                      augmentation=AugmentationConfig(translation_copies=2)),
        tmp_path / "c",
    )
    assert (tmp_path / "c" / "final.cdpm").read_bytes() != fa
