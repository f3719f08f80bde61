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

#: Cells in each per-block (query rows x gallery) matrix; 2**21 float64 cells
#: is 16 MB, so a block holds BLOCK_CELLS // G queries (at least one).
BLOCK_CELLS = 1 << 21
#: Cells in each row block of a norm computation: its 512 KB `x*x` temporary
#: stays in cache, which at G=1000, D=3072 takes 4.3 ms against 10.6 ms for
#: 16 MB blocks. A row's norm is the same at any block size.
NORM_BLOCK_CELLS = 1 << 16


class EvalError(ValueError):
    """Raised for descriptor dumps that cannot be evaluated."""


@dataclass(frozen=True)
class Ranking:
    """Gallery ids ordered by descending similarity for one query."""

    query_id: str
    gallery_ids: tuple[str, ...]
    similarities: tuple[float, ...]


def cosine_similarities(
    query: np.ndarray, gallery: np.ndarray, gallery_norms: np.ndarray | None = None
) -> np.ndarray:
    """dot(a, b) / (|a||b|) for every query row against every gallery row.

    A 1-D query gives one similarity per gallery row, a (Q, D) query a (Q, G)
    matrix from one GEMM. Zero-norm vectors give 0. `gallery_norms`, when
    given, must be `np.linalg.norm(gallery, axis=1)`, so a caller that ranks
    many query blocks against one gallery computes them once.
    """
    if query.shape[-1] != gallery.shape[-1]:
        raise EvalError(
            f"descriptor dimensions differ: query {query.shape[-1]}, "
            f"gallery {gallery.shape[-1]}"
        )
    qn = np.linalg.norm(query, axis=-1)
    gn = np.linalg.norm(gallery, axis=1) if gallery_norms is None else gallery_norms
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
    """Every descriptor must be a non-empty vector of one common length to be stacked."""
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
            if shape == (0,):
                raise EvalError(f"descriptor of {image_id!r} is empty")


def _row_norms(mat: np.ndarray, ids: list[str]) -> np.ndarray:
    """`np.linalg.norm(mat, axis=1)`, in row blocks of NORM_BLOCK_CELLS cells.

    No temporary the size of `mat` is made. A norm that is not finite makes
    every similarity of its row meaningless, so it raises, naming the row's id.
    """
    rows = max(1, NORM_BLOCK_CELLS // mat.shape[1])
    with np.errstate(over="ignore"):  # an overflow raises EvalError below
        norms = np.concatenate(
            [np.linalg.norm(mat[i : i + rows], axis=1) for i in range(0, len(mat), rows)]
        )
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        i = bad[0]
        if not np.isfinite(mat[i]).all():
            raise EvalError(f"descriptor {ids[i]!r} is not finite")
        raise EvalError(
            f"cosine similarity overflows float64: descriptor {ids[i]!r} has norm {norms[i]}"
        )
    return norms


def _relevant_ranks(row: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """0-based positions of the columns `relevant` (ascending) in `rank_order(row)`.

    A column's position is the number of columns with a higher similarity,
    plus the number of earlier columns with an equal one. `row` must hold no
    NaN. Costs one values-only sort of the row and, per relevant column whose
    similarity ties, one count over the columns before it.
    """
    values = row[relevant]
    ascending = np.sort(row)
    right = np.searchsorted(ascending, values, side="right")
    ranks = len(row) - right
    tied = right - np.searchsorted(ascending, values, side="left") > 1
    for i in np.flatnonzero(tied):
        ranks[i] += np.count_nonzero(row[: relevant[i]] == values[i])
    return ranks


def evaluate_retrieval(
    query_descs: dict[str, np.ndarray],
    gallery_descs: dict[str, np.ndarray],
    protocol: str = "single",
) -> EvalReport:
    """Rank every query against the gallery and aggregate CMC and mAP.

    Queries are scored in blocks of rows, one GEMM per block, against the
    gallery stacked once in ascending id order with its norms computed once.
    No row is sorted into an order: each relevant entry's rank is counted
    (`_relevant_ranks`), the same position the stable descending order gives.
    Raises EvalError for a non-junk descriptor that is not finite or whose
    norm overflows.
    """
    if protocol not in ("single", "multi"):
        raise EvalError(f"protocol must be 'single' or 'multi', got {protocol!r}")
    _check_lengths(gallery_descs, query_descs)
    gallery_ids, gallery_cams = [], []
    columns: dict[int, list[int]] = {}  # identity -> its gallery columns
    for gid in sorted(gallery_descs):  # id order: equal similarities rank by id
        ident, cam = _identity_camera(gid)
        if ident in JUNK_IDENTITIES:
            continue
        columns.setdefault(ident, []).append(len(gallery_ids))
        gallery_ids.append(gid)
        gallery_cams.append(cam)
    if not gallery_ids:
        raise EvalError("gallery holds no usable entries")
    gallery = np.stack([gallery_descs[g] for g in gallery_ids])
    gallery_norms = _row_norms(gallery, gallery_ids)
    gcam = np.array(gallery_cams)
    identity_columns = {ident: np.array(cols) for ident, cols in columns.items()}

    query_ids, query_keys = [], []
    for qid in query_descs:
        ident, cam = _identity_camera(qid)
        if ident not in JUNK_IDENTITIES:
            query_ids.append(qid)
            query_keys.append((ident, cam))
    if not query_ids:
        raise EvalError("no usable queries")
    qmat = np.stack([query_descs[q] for q in query_ids])
    _row_norms(qmat, query_ids)  # checked before pooling, which would hide the id
    if protocol == "multi":
        groups: dict[tuple[int, int], list[np.ndarray]] = {}
        for key, vec in zip(query_keys, qmat):
            groups.setdefault(key, []).append(vec)
        query_keys = sorted(groups)
        qmat = np.stack([multi_query_descriptor(groups[key]) for key in query_keys])

    rows = max(1, BLOCK_CELLS // len(gallery_ids))
    firsts, aps = [], []
    for start in range(0, len(qmat), rows):
        sims = cosine_similarities(qmat[start : start + rows], gallery, gallery_norms)
        for (ident, cam), row in zip(query_keys[start : start + rows], sims):
            cols = identity_columns.get(ident)
            if cols is None:
                continue
            same_cam = gcam[cols] == cam
            relevant = cols[~same_cam]
            if not relevant.size:
                continue
            row[cols[same_cam]] = -np.inf  # ranked after every valid entry, never relevant
            ranks = np.sort(_relevant_ranks(row, relevant))
            firsts.append(ranks[0])
            aps.append((np.arange(1, len(ranks) + 1) / (ranks + 1)).sum() / len(ranks))
    if not firsts:
        raise EvalError("no query has a relevant gallery entry")
    first = np.array(firsts)
    return EvalReport(
        rank1=float(np.mean(first < 1)),
        rank5=float(np.mean(first < 5)),
        rank10=float(np.mean(first < 10)),
        mean_ap=float(np.mean(aps)),
        query_count=len(first),
        protocol=protocol,
    )
