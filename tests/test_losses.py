"""Loss values against naive scalar-loop oracles, plus gradient checks."""
import math

import numpy as np
import pytest
from scipy.special import logsumexp

from cdpm import losses
from gradcheck import check_grad

RNG = np.random.default_rng(23)


# ---------------------------------------------------------------------------
# identity softmax


def softmax_loss_oracle(scores, labels):
    """Independent route: scipy logsumexp, one sample at a time."""
    total = 0.0
    for i in range(scores.shape[0]):
        total += logsumexp(scores[i]) - scores[i, labels[i] - 1]
    return total / scores.shape[0]


def test_part_softmax_uniform_logits():
    scores = np.zeros((4, 751))
    labels = np.array([1, 10, 400, 751])
    assert abs(losses.part_softmax_loss_with_grad(scores, labels)[0] - math.log(751)) < 1e-12


def test_part_softmax_confident_prediction():
    scores = np.zeros((1, 5))
    scores[0, 2] = 1e3
    assert losses.part_softmax_loss_with_grad(scores, np.array([3]))[0] < 1e-10


def test_part_softmax_matches_logsumexp_oracle():
    for _ in range(100):
        n, c = int(RNG.integers(1, 9)), int(RNG.integers(2, 30))
        scores = RNG.standard_normal((n, c)) * 5
        labels = RNG.integers(1, c + 1, n)
        got = losses.part_softmax_loss_with_grad(scores, labels)[0]
        assert abs(got - softmax_loss_oracle(scores, labels)) < 1e-10


def test_part_softmax_rejects_bad_labels():
    with pytest.raises(ValueError):
        losses.part_softmax_loss_with_grad(np.zeros((2, 3)), np.array([0, 1]))
    with pytest.raises(ValueError):
        losses.part_softmax_loss_with_grad(np.zeros((2, 3)), np.array([1, 4]))


def test_part_softmax_gradient():
    scores = RNG.standard_normal((5, 7))
    labels = RNG.integers(1, 8, 5)
    _, grad = losses.part_softmax_loss_with_grad(scores, labels)
    check_grad(
        lambda s: losses.part_softmax_loss_with_grad(s, labels)[0], scores.copy(), grad, tol=1e-6
    )


# ---------------------------------------------------------------------------
# window classification


def window_loss_oracle(pred, truth):
    """Naive triple loop over images, windows, and labels."""
    n, r, kk = pred.shape
    total = 0.0
    for i in range(n):
        for j in range(r):
            for k in range(kk):
                p = min(max(pred[i, j, k], 1e-12), 1 - 1e-12)
                total += truth[i, j, k] * math.log(p) + (1 - truth[i, j, k]) * math.log(
                    1 - p
                )
    return -total / (n * r)


def test_window_classification_half_everywhere():
    pred = np.full((3, 21, 7), 0.5)
    truth = np.full((3, 21, 7), 0.5)
    got = losses.window_classification_loss_with_grad(pred, truth)[0]
    assert abs(got - 7 * math.log(2)) < 1e-12


def test_window_classification_perfect_one_hot():
    truth = np.zeros((2, 4, 7))
    truth[:, :, 3] = 1.0
    pred = np.clip(truth, 1e-9, 1 - 1e-9)
    assert losses.window_classification_loss_with_grad(pred, truth)[0] < 1e-6


def test_window_classification_matches_loop_oracle():
    for _ in range(100):
        n, r, kk = int(RNG.integers(1, 5)), int(RNG.integers(1, 8)), int(RNG.integers(2, 9))
        pred = RNG.uniform(0.01, 0.99, (n, r, kk))
        truth = RNG.uniform(0, 1, (n, r, kk))
        got = losses.window_classification_loss_with_grad(pred, truth)[0]
        assert abs(got - window_loss_oracle(pred, truth)) < 1e-12


def test_window_classification_gradient_and_minimum():
    pred = RNG.uniform(0.05, 0.95, (2, 5, 7))
    truth = RNG.uniform(0.1, 0.9, (2, 5, 7))
    _, grad = losses.window_classification_loss_with_grad(pred, truth)
    check_grad(
        lambda p: losses.window_classification_loss_with_grad(p, truth)[0], pred.copy(), grad,
        tol=1e-6,
    )
    # gradient vanishes at pred == truth for interior truth values
    _, g0 = losses.window_classification_loss_with_grad(truth, truth)
    np.testing.assert_allclose(g0, 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# window regression


def regression_loss_oracle(pred, truth, mask):
    total, count = 0.0, 0
    n, r = pred.shape
    for i in range(n):
        for j in range(r):
            if mask[i, j]:
                total += (truth[i, j] - pred[i, j]) ** 2
                count += 1
    return 0.0 if count == 0 else total / (2 * count)


def test_regression_loss_exact_predictions():
    truth = RNG.uniform(-0.9, 0.9, (3, 21))
    mask = (RNG.random((3, 21)) < 0.5).astype(float)
    assert losses.regression_loss_with_grad(truth, truth, mask)[0] == 0.0


def test_regression_loss_hand_value():
    pred = np.array([[0.0]])
    truth = np.array([[0.375]])
    mask = np.array([[1.0]])
    got = losses.regression_loss_with_grad(pred, truth, mask)[0]
    assert abs(got - 0.375**2 / 2) < 1e-15


def test_regression_loss_ignores_unmasked_windows():
    truth = np.array([[1.2, 0.3]])
    mask = np.array([[0.0, 1.0]])
    base = losses.regression_loss_with_grad(np.zeros((1, 2)), truth, mask)[0]
    perturbed = losses.regression_loss_with_grad(np.array([[99.0, 0.0]]), truth, mask)[0]
    assert base == perturbed
    assert losses.regression_loss_with_grad(np.zeros((1, 2)), truth, np.zeros((1, 2)))[0] == 0.0


def test_regression_loss_matches_loop_oracle():
    for _ in range(100):
        n, r = int(RNG.integers(1, 5)), int(RNG.integers(1, 22))
        pred = RNG.uniform(-1, 1, (n, r))
        truth = RNG.uniform(-2, 2, (n, r))
        mask = (np.abs(truth) < 1).astype(float)
        got = losses.regression_loss_with_grad(pred, truth, mask)[0]
        assert abs(got - regression_loss_oracle(pred, truth, mask)) < 1e-12


def test_regression_loss_gradient():
    pred = RNG.uniform(-0.8, 0.8, (2, 9))
    truth = RNG.uniform(-1.5, 1.5, (2, 9))
    mask = (np.abs(truth) < 1).astype(float)
    _, grad = losses.regression_loss_with_grad(pred, truth, mask)
    check_grad(
        lambda p: losses.regression_loss_with_grad(p, truth, mask)[0], pred.copy(), grad, tol=1e-6
    )


# ---------------------------------------------------------------------------
# combined objectives


def test_total_loss_weights():
    w = losses.LossWeights(lambda1=1.0, lambda2=1.0)
    lf, lc, lr, lg = 2.0, 0.5, 0.1 + 0.2, 0.25
    assert losses.total_loss(lf, lc, lr, w) == lf + lc + lr
    assert losses.total_loss(lf, lc, lr, w, lg) == lf + lc + lr + lg
    z = losses.LossWeights(lambda1=0.0, lambda2=0.0)
    assert losses.total_loss(lf, lc, lr, z) == lf
    assert losses.total_loss(lf, lc, lr, z, lg) == lf + lg


def test_total_loss_linear_in_weights():
    lf, lc, lr = 1.0, 0.7, 0.3 + 0.4
    for lam in (0.0, 0.5, 1.0):
        w = losses.LossWeights(lambda1=lam, lambda2=lam)
        want = lf + lam * lc + lam * lr
        assert abs(losses.total_loss(lf, lc, lr, w) - want) < 1e-15


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        losses.LossWeights(lambda1=-0.1)
    with pytest.raises(ValueError):
        losses.LossWeights(lambda2=float("nan"))


# ---------------------------------------------------------------------------
# batch-hard triplet


def triplet_oracle(emb, ids, cfg):
    """Exhaustive O(N^2) pairwise-distance route."""
    n = emb.shape[0]
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = ((emb[i] - emb[j]) ** 2).sum()
    terms = []
    for i in range(n):
        pos = max(d[i, j] for j in range(n) if ids[j] == ids[i])
        neg = min(d[i, j] for j in range(n) if ids[j] != ids[i])
        terms.append(pos - neg + cfg.margin)
    violating = [t for t in terms if t > 0]
    if not violating:
        return 0.0
    return sum(violating) / (2 * len(violating))


def small_cfg():
    return losses.TripletConfig(identities_per_batch=3, images_per_identity=4, margin=0.4)


def batch_ids(cfg):
    return np.repeat(np.arange(cfg.identities_per_batch), cfg.images_per_identity)


def test_triplet_identical_embeddings():
    cfg = losses.TripletConfig()
    emb = np.tile(np.ones(8) / np.sqrt(8), (cfg.batch_size, 1))
    ids = batch_ids(cfg)
    got = losses.batch_hard_triplet_loss_with_grad(emb, ids, cfg)[0]
    assert abs(got - cfg.margin / 2) < 1e-15
    assert abs(got - 0.2) < 1e-15


def test_triplet_separated_clusters_zero_loss():
    cfg = small_cfg()
    ids = batch_ids(cfg)
    # orthogonal unit clusters: inter-class distance 2, intra 0, margin 0.4
    emb = np.zeros((cfg.batch_size, 3))
    for i, ident in enumerate(ids):
        emb[i, ident] = 1.0
    assert losses.batch_hard_triplet_loss_with_grad(emb, ids, cfg)[0] == 0.0


def test_triplet_matches_exhaustive_oracle():
    cfg = small_cfg()
    ids = batch_ids(cfg)
    for _ in range(100):
        emb = RNG.standard_normal((cfg.batch_size, 6))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        got = losses.batch_hard_triplet_loss_with_grad(emb, ids, cfg)[0]
        assert abs(got - triplet_oracle(emb, ids, cfg)) < 1e-12


def test_triplet_rotation_invariance():
    cfg = small_cfg()
    ids = batch_ids(cfg)
    emb = RNG.standard_normal((cfg.batch_size, 6))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    q, _ = np.linalg.qr(RNG.standard_normal((6, 6)))
    a = losses.batch_hard_triplet_loss_with_grad(emb, ids, cfg)[0]
    b = losses.batch_hard_triplet_loss_with_grad(emb @ q, ids, cfg)[0]
    assert abs(a - b) < 1e-10


def test_triplet_rejects_malformed_batches():
    cfg = small_cfg()
    emb = RNG.standard_normal((cfg.batch_size, 4))
    bad = np.array([0] * 6 + [1] * 6)
    with pytest.raises(ValueError):
        losses.batch_hard_triplet_loss_with_grad(emb, bad, cfg)


def test_triplet_gradient():
    cfg = small_cfg()
    ids = batch_ids(cfg)
    emb = RNG.standard_normal((cfg.batch_size, 5))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    _, grad = losses.batch_hard_triplet_loss_with_grad(emb, ids, cfg)
    check_grad(
        lambda e: losses.batch_hard_triplet_loss_with_grad(e, ids, cfg)[0], emb.copy(), grad,
        tol=1e-5,
    )


def test_losses_nonnegative():
    for _ in range(20):
        pred = RNG.uniform(0.01, 0.99, (2, 4, 5))
        truth = RNG.uniform(0, 1, (2, 4, 5))
        assert losses.window_classification_loss_with_grad(pred, truth)[0] >= 0
        p = RNG.uniform(-1, 1, (2, 6))
        t = RNG.uniform(-2, 2, (2, 6))
        assert losses.regression_loss_with_grad(p, t, (np.abs(t) < 1).astype(float))[0] >= 0
