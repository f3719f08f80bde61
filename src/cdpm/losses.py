"""Training objectives: identity softmax terms, window-detection terms,
and the batch-hard triplet term.

Every `*_with_grad` function returns `(loss, gradient)` where the gradient
is taken w.r.t. the predictions.
All reductions follow fixed summation order, so results are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class LossWeights:
    """Weights of the window classification and regression terms."""

    lambda1: float = 1.0
    lambda2: float = 1.0

    def __post_init__(self):
        for v in (self.lambda1, self.lambda2):
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"loss weights must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class TripletConfig:
    """Batch composition and margin for the triplet term."""

    identities_per_batch: int = 6
    images_per_identity: int = 8
    margin: float = 0.4

    def __post_init__(self):
        for name in ("identities_per_batch", "images_per_identity"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.margin < float("inf"):
            raise ValueError(f"margin must be finite and >= 0, got {self.margin}")

    @property
    def batch_size(self) -> int:
        return self.identities_per_batch * self.images_per_identity


# ---------------------------------------------------------------------------
# identity classification


def part_softmax_loss_with_grad(
    scores: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean negative log-softmax of the true class. Labels are 1-based in [1, C].

    scores: (N, C) raw logits for one part branch.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n, c = scores.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} != ({n},)")
    if np.any(labels < 1) or np.any(labels > c):
        raise ValueError(f"labels must lie in [1, {c}]")
    idx = labels.astype(np.int64) - 1
    zmax = scores.max(axis=1, keepdims=True)
    ez = np.exp(scores - zmax)
    sez = ez.sum(axis=1, keepdims=True)
    log_probs = scores - zmax - np.log(sez)
    loss = -log_probs[np.arange(n), idx].sum() / n
    grad = ez / sez
    grad[np.arange(n), idx] -= 1.0
    return float(loss), grad / n


# ---------------------------------------------------------------------------
# window classification


def window_classification_loss_with_grad(
    pred: np.ndarray, truth: np.ndarray
) -> tuple[float, np.ndarray]:
    """Sigmoid cross entropy over windows, normalized by images x windows only.

    pred, truth: (N, R, K+1). The label-dimension sum is not averaged; logs
    are clamped at 1e-12.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 3:
        raise ValueError(f"pred {pred.shape} and truth {truth.shape} must be (N,R,K+1)")
    n, r, _ = pred.shape
    p = np.clip(pred, LOG_CLAMP, 1.0 - LOG_CLAMP)
    elementwise = truth * np.log(p) + (1.0 - truth) * np.log1p(-p)
    loss = -elementwise.sum() / (n * r)
    grad = -(truth / p - (1.0 - truth) / (1.0 - p)) / (n * r)
    return float(loss), grad


# ---------------------------------------------------------------------------
# window regression


def regression_loss_with_grad(
    pred: np.ndarray, truth: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """Masked mean squared error for one part's offsets.

    pred, truth, mask: (N, R). mask selects windows with |truth offset| < 1;
    the divisor is twice the masked-in count over the whole batch. A zero
    count gives loss 0.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    if not pred.shape == truth.shape == mask.shape:
        raise ValueError("pred, truth, and mask shapes must match")
    count = mask.sum()
    if count == 0:
        return 0.0, np.zeros_like(pred)
    diff = (truth - pred) * mask
    loss = float((diff * diff).sum() / (2.0 * count))
    grad = (pred - truth) * mask / count
    return loss, grad


# ---------------------------------------------------------------------------
# combined objectives


def total_loss(
    feature_term: float,
    classification_term: float,
    regression_term: float,
    weights: LossWeights = LossWeights(),
    triplet_term: float = 0.0,
) -> float:
    """Overall objective, added left to right: the feature term (per-part
    softmax losses summed), the weighted classification term, the weighted
    regression term (per-part losses summed) and the triplet term."""
    return float(
        feature_term
        + weights.lambda1 * classification_term
        + weights.lambda2 * regression_term
        + triplet_term
    )


# ---------------------------------------------------------------------------
# batch-hard triplet


def _pairwise_sq_dists(emb: np.ndarray) -> np.ndarray:
    sq = (emb * emb).sum(axis=1)
    d = sq[:, None] + sq[None, :] - 2.0 * (emb @ emb.T)
    return np.maximum(d, 0.0)


def batch_hard_triplet_loss_with_grad(
    embeddings: np.ndarray, identities: np.ndarray, cfg: TripletConfig = TripletConfig()
) -> tuple[float, np.ndarray]:
    """Hardest-positive / hardest-negative hinge loss over a P x A batch.

    embeddings: (N, D) L2-normalized rows; identities: (N,) labels forming
    exactly `identities_per_batch` groups of `images_per_identity`. Each
    anchor contributes max(0, hardest_pos - hardest_neg + margin); the sum
    is divided by twice the number of violating anchors (0 if none violate).
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    ids = np.asarray(identities)
    n = emb.shape[0]
    if ids.shape != (n,):
        raise ValueError(f"identities shape {ids.shape} != ({n},)")
    uniq, counts = np.unique(ids, return_counts=True)
    if len(uniq) != cfg.identities_per_batch or not np.all(
        counts == cfg.images_per_identity
    ):
        raise ValueError(
            f"batch must hold {cfg.identities_per_batch} identities x "
            f"{cfg.images_per_identity} images, got counts {dict(zip(uniq, counts))}"
        )
    d = _pairwise_sq_dists(emb)
    same = ids[:, None] == ids[None, :]
    pos_d = np.where(same, d, -np.inf)
    neg_d = np.where(same, np.inf, d)
    hardest_pos = pos_d.argmax(axis=1)
    hardest_neg = neg_d.argmin(axis=1)
    rows = np.arange(n)
    terms = d[rows, hardest_pos] - d[rows, hardest_neg] + cfg.margin
    violating = terms > 0.0
    m = int(violating.sum())
    if m == 0:
        return 0.0, np.zeros_like(emb)
    loss = float(terms[violating].sum() / (2.0 * m))
    grad = np.zeros_like(emb)
    scale = 1.0 / (2.0 * m)
    for i in rows[violating]:
        p, q = hardest_pos[i], hardest_neg[i]
        # d||e_i - e_j||^2 / d e_i = 2 (e_i - e_j)
        grad[i] += 2.0 * scale * (emb[i] - emb[p])
        grad[p] -= 2.0 * scale * (emb[i] - emb[p])
        grad[i] -= 2.0 * scale * (emb[i] - emb[q])
        grad[q] += 2.0 * scale * (emb[i] - emb[q])
    return loss, grad
