"""Network assembly: shapes, selection wiring, descriptors, checkpoints."""
import itertools
import tracemalloc

import numpy as np
import pytest

from cdpm import alignment, ops
from cdpm.layers import init_weights
from cdpm.model import (
    CdpmNetwork,
    DetectionHeads,
    ModelConfig,
    NotInitializedError,
    PartBranch,
    ToyBackbone,
    gather_windows,
    scatter_window_grad,
)
from gradcheck import check_grad

RNG = np.random.default_rng(51)


def small_cfg(**kw):
    base = dict(classes=5, backbone_channels=(4, 8, 8, 8, 8), feature_dim=16,
                holistic_dim=16, attention_reduction=4)
    base.update(kw)
    return ModelConfig(**base)


def drawn(block, key):
    """The block with its weights drawn by the network's init policy."""
    init_weights(block, key)
    return block


@pytest.fixture(scope="module")
def net():
    return CdpmNetwork(small_cfg(with_mgf=True), np.random.default_rng(1))


def test_backbone_output_shape_and_determinism(net):
    imgs = RNG.random((2, 384, 128, 3))
    fmap, _ = net.backbone_forward(imgs)
    assert fmap.shape == (2, 24, 8, 8)
    fmap2, _ = net.backbone_forward(imgs)
    assert np.array_equal(fmap, fmap2)


def test_backbone_zero_image_finite(net):
    fmap, _ = net.backbone_forward(np.zeros((1, 384, 128, 3)))
    assert np.all(np.isfinite(fmap))


def test_backbone_rejects_wrong_size(net):
    with pytest.raises(ops.ShapeError):
        net.backbone_forward(np.zeros((1, 128, 384, 3)))


def test_window_vectors_match_direct_means(net):
    fmap, _ = net.backbone_forward(RNG.random((2, 384, 128, 3)))
    vecs = net.window_vectors(fmap)
    assert vecs.shape == (2, 21, 8)
    for r in range(21):
        np.testing.assert_allclose(vecs[:, r], fmap[:, r : r + 4].mean(axis=(1, 2)))


def test_window_vectors_backward_matches_fd(net):
    fmap = RNG.random((1, 24, 8, 8))
    g = RNG.standard_normal((1, 21, 8))
    gx = net.window_vectors_backward(fmap.shape, g)
    check_grad(
        lambda v: float((net.window_vectors(v) * g).sum()), fmap.copy(), gx, tol=1e-6
    )


def test_detection_head_output_ranges(net):
    vecs = RNG.standard_normal((3, 21, 8)) * 5
    scores, offsets, _ = net.heads.forward(vecs)
    assert scores.shape == (3, 21, 7) and offsets.shape == (3, 21, 6)
    assert np.all((scores > 0) & (scores < 1))
    assert np.all(np.abs(offsets) < 1)
    # independent sigmoids: rows need not sum to 1
    assert not np.allclose(scores.sum(axis=-1), 1.0)


def test_detection_heads_zero_init_neutral():
    heads = DetectionHeads(small_cfg(), 8)
    for p in heads.parameters():
        p.value[...] = 0.0
    scores, offsets, _ = heads.forward(RNG.standard_normal((2, 21, 8)))
    np.testing.assert_allclose(scores, 0.5)
    np.testing.assert_allclose(offsets, 0.0)


def test_detection_heads_structure():
    cfg = small_cfg()
    heads = DetectionHeads(cfg, 8)
    assert heads.cls_out.w.value.shape[1] == cfg.parts + 1
    assert len(heads.reg_out) == cfg.parts
    names = [p.name for p in heads.parameters()]
    assert len(names) == len(set(names))
    per_head = [
        {n for n in names if n.startswith(f"valign.reg{k}.")} for k in range(1, 7)
    ]
    for i in range(6):
        for j in range(i + 1, 6):
            assert not per_head[i] & per_head[j]


def test_detection_heads_gradients():
    heads = drawn(DetectionHeads(small_cfg(), 8), 3)
    vecs = RNG.standard_normal((2, 5, 8))
    gs = RNG.standard_normal((2, 5, 7))
    go = RNG.standard_normal((2, 5, 6))
    _, _, ctx = heads.forward(vecs)
    for p in heads.parameters():
        p.zero_grad()
    gv = heads.backward(ctx, gs, go)

    def scalar(v):
        s, o, _ = heads.forward(v)
        return float((s * gs).sum() + (o * go).sum())

    check_grad(scalar, vecs.copy(), gv, tol=1e-6)


def test_part_branch_gradcheck_through_sca():
    branch = drawn(PartBranch("pb", small_cfg(), 8), 5)
    window = RNG.standard_normal((2, 4, 8, 8))
    glogits = RNG.standard_normal((2, 5))

    def scalar(v):
        _, scores, _ = branch.forward(v, True)
        return float((scores * glogits).sum())

    _, _, ctx = branch.forward(window, True)
    for p in branch.parameters():
        p.zero_grad()
    gwin = branch.backward(ctx, glogits)
    check_grad(scalar, window.copy(), gwin, tol=1e-5)
    for p in branch.parameters():
        analytic = p.grad.copy()

        def f(v, p=p):
            old = p.value.copy()
            p.value[...] = v
            try:
                return scalar(window)
            finally:
                p.value[...] = old

        check_grad(f, p.value.copy(), analytic, tol=1e-5)


def test_part_branch_refinement_off_is_gap_permutation_invariant():
    branch = drawn(PartBranch("pp", small_cfg(), 8), 6)
    window = RNG.standard_normal((1, 4, 8, 8))
    feat, scores, _ = branch.forward(window, False)
    perm = window[:, ::-1, ::-1, :].copy()  # spatial permutation
    feat2, scores2, _ = branch.forward(perm, False)
    np.testing.assert_allclose(feat, feat2, atol=1e-12)
    np.testing.assert_allclose(scores, scores2, atol=1e-12)


def test_part_branch_refinement_disabled_matches_branch_without_sca():
    # one name and one key: the shared parameters start equal without copying
    with_sca = drawn(PartBranch("p", small_cfg(), 8), 7)
    without = drawn(PartBranch("p", small_cfg(with_refinement=False), 8), 7)
    window = RNG.standard_normal((2, 4, 8, 8))
    feat_a, scores_a, _ = with_sca.forward(window, False)
    feat_b, scores_b, _ = without.forward(window, False)
    assert np.array_equal(feat_a, feat_b)
    assert np.array_equal(scores_a, scores_b)


def test_gather_scatter_roundtrip():
    fmap = RNG.random((3, 24, 8, 2))
    tops = np.array([0, 5, 20])
    win = gather_windows(fmap, tops, 4)
    assert win.shape == (3, 4, 8, 2)
    for i, t in enumerate(tops):
        np.testing.assert_array_equal(win[i], fmap[i, t : t + 4])
    g = np.zeros_like(fmap)
    scatter_window_grad(g, tops, win)
    for i, t in enumerate(tops):
        np.testing.assert_array_equal(g[i, t : t + 4], win[i])
        outside = np.delete(g[i], np.s_[t : t + 4], axis=0)
        assert not outside.any()
    # onto a non-zero gradient it adds the bits of the per-image loop
    rng = np.random.default_rng(58)
    base, gwin = rng.standard_normal((3, 24, 8, 2)), rng.standard_normal((3, 4, 8, 2))
    got, want = base.copy(), base.copy()
    scatter_window_grad(got, tops, gwin)
    for i, t in enumerate(tops):
        want[i, t : t + 4] += gwin[i]
    assert np.array_equal(got, want)


def test_descriptor_dimensions():
    base = CdpmNetwork(small_cfg(), np.random.default_rng(2))
    imgs = RNG.random((1, 384, 128, 3))
    assert base.descriptor(imgs).shape == (1, 6 * 16)
    mgf = CdpmNetwork(small_cfg(with_mgf=True), np.random.default_rng(2))
    assert mgf.descriptor(imgs).shape == (1, (6 + 2 + 3 + 4) * 16 + 16)
    # the documented full-size dimensions
    assert ModelConfig(classes=10).descriptor_dim == 3072
    assert ModelConfig(classes=10, with_mgf=True).descriptor_dim == 8192


def test_descriptor_deterministic(net):
    imgs = RNG.random((2, 384, 128, 3))
    a = net.descriptor(imgs)
    b = net.descriptor(imgs)
    assert np.array_equal(a, b)


def test_descriptor_requires_initialization():
    blank = CdpmNetwork(small_cfg())
    with pytest.raises(NotInitializedError):
        blank.descriptor(RNG.random((1, 384, 128, 3)))


def test_parameter_groups_partition(net):
    all_names = {p.name for p in net.parameters()}
    baseline = {p.name for p in net.baseline_parameters()}
    new = {p.name for p in net.new_module_parameters()}
    assert baseline | new == all_names
    assert not baseline & new
    assert any(n.startswith("backbone.") for n in baseline)
    assert any(".sca." in n for n in new)
    assert any(n.startswith("valign.") for n in new)
    assert any(n.startswith("holistic.") for n in new)
    assert any(n.startswith("g2.") for n in new)


def test_checkpoint_roundtrip_preserves_descriptors(tmp_path, net):
    imgs = RNG.random((1, 384, 128, 3))
    want = net.descriptor(imgs)
    path = tmp_path / "net.cdpm"
    net.save(path)
    loaded = CdpmNetwork.load(path)
    assert loaded.cfg == net.cfg
    got = loaded.descriptor(imgs)
    assert np.array_equal(want, got)


def test_shared_parameters_start_equal_across_module_choices():
    """Each weight is drawn from the run's key and its own name, so with equal
    generators turning a module on or off moves no other parameter."""
    values = []
    for r, a, m in itertools.product((False, True), repeat=3):
        cfg = small_cfg(with_refinement=r, with_alignment=a, with_mgf=m)
        net = CdpmNetwork(cfg, np.random.default_rng(11))
        values.append({p.name: p.value for p in net.parameters()})
    for a, b in itertools.combinations(values, 2):
        for name in a.keys() & b.keys():
            assert np.array_equal(a[name], b[name]), name
    assert np.any(values[0]["backbone.conv1.w"])


def test_weights_are_he_normal_and_the_rest_constant():
    net = CdpmNetwork(ModelConfig(classes=12), np.random.default_rng(0))
    for p in net.parameters():
        if p.fan_in:
            std = np.sqrt(2.0 / p.fan_in)
            if p.value.size >= 10000:
                assert abs(p.value.std() / std - 1) < 0.05, p.name
                assert abs(p.value.mean()) < 0.05 * std, p.name
        else:
            assert np.all(p.value == (1.0 if p.name.endswith(".scale") else 0.0)), p.name


def test_load_draws_no_random_numbers(tmp_path, net, monkeypatch):
    path = tmp_path / "net.cdpm"
    net.save(path)

    def draw(*args, **kwargs):
        raise AssertionError("CdpmNetwork.load drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", draw)
    monkeypatch.setattr(np.random, "SeedSequence", draw)
    loaded = CdpmNetwork.load(path)
    for p, q in zip(net.parameters(), loaded.parameters()):
        assert p.name == q.name and np.array_equal(p.value, q.value)


def test_checkpoint_mismatch_rejected(tmp_path, net):
    path = tmp_path / "net.cdpm"
    net.save(path)
    from cdpm import tensorio

    tensors = tensorio.load_tensors(path)
    tensors.pop("part1.reduce.w")
    tensorio.save_tensors(path, tensors)
    with pytest.raises(ValueError, match="does not match"):
        CdpmNetwork.load(path)


def test_holistic_embedding_unit_norm(net):
    fmap, _ = net.backbone_forward(RNG.random((3, 384, 128, 3)))
    emb, _ = net.holistic.forward(fmap)
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, atol=1e-9)


def test_select_part_windows_routes_per_part(net):
    scores = np.full((1, 21, 7), 0.1)
    offsets = np.zeros((1, 21, 6))
    scores[0, 4, 0] = 0.9  # part 1: single high score
    scores[0, 9, 2] = 0.7  # part 3: two above threshold
    scores[0, 11, 2] = 0.8
    offsets[0, 9, 2] = 0.05
    offsets[0, 11, 2] = 0.4
    picks = net.select_part_windows(scores, offsets, alignment.SelectionConfig(0.6))
    assert picks[0, 0] == 5
    assert picks[0, 2] == 10  # smaller |offset| among the two candidates


def test_forward_only_passes_never_build_whole_batch_patches():
    """descriptor and calibrate gather patches one image block at a time, so
    their peak stays below conv1's and conv2's whole-batch patch matrices."""
    cfg = ModelConfig(classes=12, with_mgf=True)
    net = CdpmNetwork(cfg, np.random.default_rng(3))
    imgs = RNG.random((8, 384, 128, 3))
    c1 = cfg.backbone_channels[0]
    limit = 8 * len(imgs) * (192 * 64 * 9 * 3 + 96 * 32 * 9 * c1)  # 49.5 MB
    for forward in (net.calibrate, net.descriptor):
        tracemalloc.start()
        try:
            forward(imgs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit, f"{forward.__name__} peaked at {peak / 1e6:.1f} MB"


def test_descriptor_peak_memory_does_not_grow_with_batch(monkeypatch):
    """Beyond the feature map and the heads' small per-image arrays, the
    descriptor's traced peak is its workers' reused block buffers: from 8 to
    16 images it grows by under 2 MB (whole-batch activations would add
    ~32 MB)."""
    monkeypatch.setattr(ops, "WORKERS", 2)
    net = CdpmNetwork(ModelConfig(classes=12, with_mgf=True), np.random.default_rng(3))
    peaks = []
    for batch in (8, 16):
        imgs = RNG.random((batch, 384, 128, 3))
        tracemalloc.start()
        try:
            net.descriptor(imgs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2e6, f"peaks {peaks[0] / 1e6:.1f} -> {peaks[1] / 1e6:.1f} MB"


def test_backbone_backward_peak_memory_does_not_grow_with_batch(monkeypatch):
    """Beyond the per-block kernel- and bias-gradient partials (~0.8 MB per
    image), the backbone backward's traced peak is its workers' reused block
    buffers: from 8 to 16 images it grows by under 10 MB (whole-batch patch
    matrices and gradients between layers added ~54 MB)."""
    monkeypatch.setattr(ops, "WORKERS", 2)
    net = CdpmNetwork(ModelConfig(classes=12), np.random.default_rng(3))
    peaks = []
    for batch in (8, 16):
        fmap, acts = net.backbone_forward(RNG.random((batch, 384, 128, 3)))
        grad = RNG.standard_normal(fmap.shape)
        tracemalloc.start()
        try:
            net.backbone.backward(acts, grad)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 10e6, f"peaks {peaks[0] / 1e6:.1f} -> {peaks[1] / 1e6:.1f} MB"
