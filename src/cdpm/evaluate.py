"""Retrieval evaluation: cosine ranking, CMC, mAP, and report formatting.

Protocol: gallery entries with the query's identity and camera are excluded
per query; junk identities (0 and -1) never count as ranked or relevant.
Queries with no relevant gallery entry are excluded from the averages.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import JUNK_IDENTITIES, parse_image_name

CMC_RANKS = (1, 5, 10)
#: Cells in each per-block (query rows x gallery) matrix; 2**21 float64 cells
#: is 16 MB, so a block holds BLOCK_CELLS // G queries (at least one).
BLOCK_CELLS = 1 << 21


class EvalError(ValueError):
    """Raised for descriptor dumps that cannot be evaluated."""


@dataclass(frozen=True)
class Ranking:
    """Gallery ids ordered by descending similarity for one query."""

    query_id: str
    gallery_ids: tuple[str, ...]
    similarities: tuple[float, ...]


def cosine_similarities(query: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """dot(a, b) / (|a||b|) for every query row against every gallery row.

    A 1-D query gives one similarity per gallery row, a (Q, D) query a (Q, G)
    matrix from one GEMM. Zero-norm vectors give 0.
    """
    if query.shape[-1] != gallery.shape[-1]:
        raise EvalError(
            f"descriptor dimensions differ: query {query.shape[-1]}, "
            f"gallery {gallery.shape[-1]}"
        )
    qn = np.linalg.norm(query, axis=-1)
    gn = np.linalg.norm(gallery, axis=1)
    denom = qn[..., None] * gn
    return np.divide(query @ gallery.T, denom, out=np.zeros(denom.shape), where=denom > 0)


def rank_order(sims: np.ndarray) -> np.ndarray:
    """Column indices by descending similarity along the last axis.

    The sort is stable, so equal similarities keep column order; callers put
    the gallery in ascending id order to break ties by gallery id.
    """
    return np.argsort(-sims, axis=-1, kind="stable")


def cosine_rank(
    query_id: str, query: np.ndarray, gallery: dict[str, np.ndarray]
) -> Ranking:
    """Rank gallery entries by cosine similarity, ties broken by gallery id."""
    ids = sorted(gallery)
    sims = cosine_similarities(query, np.stack([gallery[g] for g in ids]))
    order = rank_order(sims)
    return Ranking(
        query_id=query_id,
        gallery_ids=tuple(ids[i] for i in order),
        similarities=tuple(sims[order].tolist()),
    )


def average_precision(relevance: np.ndarray) -> float | np.ndarray:
    """Mean of precision@p over the relevant positions p (1-based).

    Works along the last axis: a 1-D relevance list gives a float, a (Q, G)
    matrix one AP per row. Every list needs at least one relevant item.
    """
    relevance = np.asarray(relevance, dtype=np.float64)
    n_rel = relevance.sum(axis=-1)
    if np.any(n_rel == 0):
        raise EvalError("average precision needs at least one relevant item")
    hits = np.cumsum(relevance, axis=-1)
    hits /= np.arange(1, relevance.shape[-1] + 1)
    hits *= relevance
    ap = hits.sum(axis=-1) / n_rel
    return float(ap) if ap.ndim == 0 else ap


def cmc_curve(relevance: np.ndarray, ranks=CMC_RANKS) -> dict[int, float]:
    """Fraction of relevance lists (along the last axis) with a hit in the top k."""
    rel = np.asarray(relevance) != 0
    first = np.where(rel.any(axis=-1), rel.argmax(axis=-1), rel.shape[-1])
    return {k: float(np.mean(first < k)) for k in ranks}


def multi_query_descriptor(descriptors: list[np.ndarray]) -> np.ndarray:
    """Pool same-identity same-camera query descriptors by elementwise mean."""
    if not descriptors:
        raise EvalError("multi-query pooling needs at least one descriptor")
    return np.mean(np.stack(descriptors), axis=0)


@dataclass(frozen=True)
class EvalReport:
    rank1: float
    rank5: float
    rank10: float
    mean_ap: float
    query_count: int
    protocol: str

    def csv_rows(self) -> list[tuple[str, str]]:
        return [
            ("protocol", self.protocol),
            ("queries", str(self.query_count)),
            ("rank1", f"{self.rank1:.6f}"),
            ("rank5", f"{self.rank5:.6f}"),
            ("rank10", f"{self.rank10:.6f}"),
            ("mAP", f"{self.mean_ap:.6f}"),
        ]

    def text(self) -> str:
        return (
            f"{self.protocol}-query over {self.query_count} queries: "
            f"rank-1 {self.rank1:.4f}, rank-5 {self.rank5:.4f}, "
            f"rank-10 {self.rank10:.4f}, mAP {self.mean_ap:.4f}"
        )


def write_report_csv(path: str | Path, report: EvalReport) -> None:
    lines = ["metric,value"] + [f"{k},{v}" for k, v in report.csv_rows()]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _identity_camera(image_id: str) -> tuple[int, int]:
    parsed = parse_image_name(image_id)
    if parsed is None:
        raise EvalError(f"cannot parse identity/camera from image id {image_id!r}")
    return parsed[0], parsed[1]


def _check_lengths(*descriptor_sets: dict[str, np.ndarray]) -> None:
    """Every descriptor must be a vector of one common length to be stacked."""
    first_id = first_shape = None
    for descs in descriptor_sets:
        for image_id, vec in descs.items():
            shape = np.shape(vec)
            if first_id is None:
                first_id, first_shape = image_id, shape
            if len(shape) != 1 or shape != first_shape:
                raise EvalError(
                    f"descriptors must be vectors of one length: {image_id!r} has "
                    f"shape {shape}, {first_id!r} has shape {first_shape}"
                )


def evaluate_retrieval(
    query_descs: dict[str, np.ndarray],
    gallery_descs: dict[str, np.ndarray],
    protocol: str = "single",
) -> EvalReport:
    """Rank every query against the gallery and aggregate CMC and mAP.

    Queries are ranked in blocks of rows, one GEMM per block, against the
    gallery stacked once in ascending id order.
    """
    if protocol not in ("single", "multi"):
        raise EvalError(f"protocol must be 'single' or 'multi', got {protocol!r}")
    _check_lengths(gallery_descs, query_descs)
    gallery_ids, gallery_meta = [], []
    for gid in sorted(gallery_descs):  # id order makes the stable sort's tie-break the id
        ident, cam = _identity_camera(gid)
        if ident in JUNK_IDENTITIES:
            continue
        gallery_ids.append(gid)
        gallery_meta.append((ident, cam))
    if not gallery_ids:
        raise EvalError("gallery holds no usable entries")
    gallery = np.stack([gallery_descs[g] for g in gallery_ids])
    gident, gcam = np.array(gallery_meta).T

    queries: list[tuple[int, int, np.ndarray]] = []
    if protocol == "single":
        for qid, vec in query_descs.items():
            ident, cam = _identity_camera(qid)
            if ident in JUNK_IDENTITIES:
                continue
            queries.append((ident, cam, vec))
    else:
        groups: dict[tuple[int, int], list[np.ndarray]] = {}
        for qid, vec in query_descs.items():
            ident, cam = _identity_camera(qid)
            if ident in JUNK_IDENTITIES:
                continue
            groups.setdefault((ident, cam), []).append(vec)
        for (ident, cam), vecs in sorted(groups.items()):
            queries.append((ident, cam, multi_query_descriptor(vecs)))
    if not queries:
        raise EvalError("no usable queries")
    qident = np.array([q[0] for q in queries])
    qcam = np.array([q[1] for q in queries])
    qmat = np.stack([q[2] for q in queries])

    rows = max(1, BLOCK_CELLS // len(gallery_ids))
    aps, top_relevance = [], []
    for start in range(0, len(queries), rows):
        block = slice(start, start + rows)
        same_id = qident[block, None] == gident
        excluded = same_id & (qcam[block, None] == gcam)
        sims = cosine_similarities(qmat[block], gallery)
        sims[excluded] = -np.inf  # ranked after every valid entry, never relevant
        order = rank_order(sims)
        del sims  # one block matrix fewer alive during average_precision
        rel = np.take_along_axis(same_id & ~excluded, order, axis=-1)
        rel = rel[rel.any(axis=-1)]  # nothing retrievable for the other queries
        aps.append(average_precision(rel))
        top_relevance.append(rel[:, : max(CMC_RANKS)])  # all that CMC reads
    top = np.concatenate(top_relevance)
    if not len(top):
        raise EvalError("no query has a relevant gallery entry")
    cmc = cmc_curve(top)
    return EvalReport(
        rank1=cmc[1],
        rank5=cmc[5],
        rank10=cmc[10],
        mean_ap=float(np.mean(np.concatenate(aps))),
        query_count=len(top),
        protocol=protocol,
    )
