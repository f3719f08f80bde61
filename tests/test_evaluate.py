"""Ranking, average precision, CMC, and protocol handling."""
import tracemalloc
import warnings

import numpy as np
import pytest

from cdpm import evaluate
from cdpm.data import parse_image_name

RNG = np.random.default_rng(71)


def ap_oracle(flags):
    """Quadratic-time restatement of average precision."""
    total, hits = 0.0, 0
    n_rel = sum(flags)
    for p in range(1, len(flags) + 1):
        if flags[p - 1]:
            hits = sum(flags[:p])
            total += hits / p
    return total / n_rel


def test_average_precision_spec_value():
    got = evaluate.average_precision([1, 0, 1, 0])
    assert abs(got - (1.0 + 2.0 / 3.0) / 2.0) < 1e-9
    assert abs(got - 0.833333333) < 1e-6


def test_average_precision_perfect():
    assert evaluate.average_precision([1, 1, 0, 0]) == 1.0


def test_average_precision_matches_oracle():
    for _ in range(200):
        flags = (RNG.random(20) < 0.3).astype(int)
        if flags.sum() == 0:
            continue
        assert abs(evaluate.average_precision(flags) - ap_oracle(list(flags))) < 1e-12


def test_average_precision_needs_relevant():
    with pytest.raises(evaluate.EvalError):
        evaluate.average_precision([0, 0])


def test_cosine_rank_identical_vector_first():
    gallery = {f"{i:04d}_c2_0000": RNG.standard_normal(8) for i in range(1, 6)}
    query = gallery["0003_c2_0000"].copy()
    ranking = evaluate.cosine_rank("0003_c1_0000", query, gallery)
    assert ranking.gallery_ids[0] == "0003_c2_0000"
    assert abs(ranking.similarities[0] - 1.0) < 1e-12


def test_cosine_rank_scale_invariant():
    gallery = {f"{i:04d}_c2_0000": RNG.standard_normal(6) for i in range(1, 9)}
    q = RNG.standard_normal(6)
    a = evaluate.cosine_rank("q", q, gallery).gallery_ids
    b = evaluate.cosine_rank("q", 5.0 * q, gallery).gallery_ids
    assert a == b


def test_cosine_rank_hand_case():
    gallery = {
        "0001_c2_0000": np.array([1.0, 0.0]),
        "0002_c2_0000": np.array([1.0, 1.0]),
        "0003_c2_0000": np.array([0.0, 1.0]),
    }
    ranking = evaluate.cosine_rank("q", np.array([2.0, 1.0]), gallery)
    sims = {g: np.dot(v, [2, 1]) / (np.linalg.norm(v) * np.sqrt(5))
            for g, v in gallery.items()}
    want = tuple(sorted(gallery, key=lambda g: (-sims[g], g)))
    assert ranking.gallery_ids == want


def test_cosine_rank_zero_norm_and_mismatch():
    gallery = {"0001_c2_0000": np.zeros(4), "0002_c2_0000": np.ones(4)}
    ranking = evaluate.cosine_rank("q", np.ones(4), gallery)
    assert ranking.gallery_ids[0] == "0002_c2_0000"
    assert ranking.similarities[-1] == 0.0
    with pytest.raises(evaluate.EvalError):
        evaluate.cosine_similarities(np.ones(3), np.ones((2, 4)))


def test_cosine_rank_deterministic_tie_break():
    gallery = {"0002_c2_0000": np.ones(3), "0001_c2_0000": np.ones(3)}
    ranking = evaluate.cosine_rank("q", np.ones(3), gallery)
    assert ranking.gallery_ids == ("0001_c2_0000", "0002_c2_0000")


def toy_setup():
    """Two identities, two cameras; descriptors cluster by identity."""
    rng = np.random.default_rng(5)
    center = {1: rng.standard_normal(8), 2: rng.standard_normal(8) + 4}
    queries, gallery = {}, {}
    for ident in (1, 2):
        for j in range(2):
            queries[f"{ident:04d}_c1_{j:04d}"] = center[ident] + 0.01 * rng.standard_normal(8)
            gallery[f"{ident:04d}_c2_{j:04d}"] = center[ident] + 0.01 * rng.standard_normal(8)
    return queries, gallery


def test_evaluate_retrieval_perfect_case():
    queries, gallery = toy_setup()
    report = evaluate.evaluate_retrieval(queries, gallery, "single")
    assert report.rank1 == 1.0 and report.mean_ap == 1.0
    assert report.query_count == 4
    assert report.mean_ap <= 1.0


def test_evaluate_retrieval_same_camera_exclusion():
    # the only same-identity entries share the query's camera -> excluded,
    # so those queries drop out of the averages
    queries = {"0001_c1_0000": np.array([1.0, 0.0]), "0002_c1_0000": np.array([0.0, 1.0])}
    gallery = {
        "0001_c1_0001": np.array([1.0, 0.0]),  # same cam as query 1
        "0002_c2_0000": np.array([0.0, 1.0]),
    }
    report = evaluate.evaluate_retrieval(queries, gallery, "single")
    assert report.query_count == 1
    assert report.rank1 == 1.0


def test_evaluate_retrieval_junk_excluded():
    queries, gallery = toy_setup()
    gallery["-1_c2_0000"] = np.full(8, 100.0)
    gallery["0000_c2_0000"] = np.full(8, 100.0)
    report = evaluate.evaluate_retrieval(queries, gallery, "single")
    assert report.rank1 == 1.0  # junk cannot outrank anything


def test_evaluate_retrieval_multi_query_pools():
    queries, gallery = toy_setup()
    single = evaluate.evaluate_retrieval(queries, gallery, "single")
    multi = evaluate.evaluate_retrieval(queries, gallery, "multi")
    assert multi.query_count == 2  # one pooled query per (identity, camera)
    assert multi.rank1 == 1.0
    assert single.protocol == "single" and multi.protocol == "multi"


def test_evaluate_retrieval_deterministic():
    queries, gallery = toy_setup()
    a = evaluate.evaluate_retrieval(queries, gallery, "single")
    b = evaluate.evaluate_retrieval(queries, gallery, "single")
    assert a == b


def test_report_csv_format(tmp_path):
    queries, gallery = toy_setup()
    report = evaluate.evaluate_retrieval(queries, gallery, "single")
    path = tmp_path / "report.csv"
    evaluate.write_report_csv(path, report)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "metric,value"
    metrics = dict(l.split(",") for l in lines[1:])
    assert set(metrics) == {"protocol", "queries", "rank1", "rank5", "rank10", "mAP"}
    assert float(metrics["rank1"]) == report.rank1


def test_evaluate_retrieval_rejects_unequal_lengths():
    queries, gallery = toy_setup()
    gallery["0002_c2_0009"] = np.ones(5)
    with pytest.raises(evaluate.EvalError, match="0002_c2_0009"):
        evaluate.evaluate_retrieval(queries, gallery, "single")
    queries, gallery = toy_setup()
    queries["0001_c1_0009"] = np.ones(9)
    with pytest.raises(evaluate.EvalError, match="0001_c1_0009"):
        evaluate.evaluate_retrieval(queries, gallery, "multi")


def cosine_oracle(query, mat):
    qn = np.linalg.norm(query)
    gn = np.linalg.norm(mat, axis=1)
    denom = qn * gn
    sims = np.zeros(len(mat))
    ok = denom > 0
    sims[ok] = (mat[ok] @ query) / denom[ok]
    return sims


def evaluate_oracle(query_descs, gallery_descs, protocol):
    """Per-query restatement of the protocol: one gallery subset and one key sort
    per query. Returns None when no query has a relevant gallery entry."""
    def meta(image_id):
        ident, cam, _ = parse_image_name(image_id)
        return ident, cam

    gallery_meta = {g: meta(g) for g in gallery_descs if meta(g)[0] not in (0, -1)}
    queries = [(*meta(q), v) for q, v in query_descs.items() if meta(q)[0] not in (0, -1)]
    if protocol == "multi":
        groups = {}
        for ident, cam, vec in queries:
            groups.setdefault((ident, cam), []).append(vec)
        queries = [(*key, np.mean(np.stack(vecs), axis=0))
                   for key, vecs in sorted(groups.items())]
    firsts, aps = [], []
    for ident, cam, vec in queries:
        valid = [g for g, key in gallery_meta.items() if key != (ident, cam)]
        if not valid:
            continue
        sims = cosine_oracle(vec, np.stack([gallery_descs[g] for g in valid]))
        order = sorted(range(len(valid)), key=lambda i: (-sims[i], valid[i]))
        rel = [gallery_meta[valid[i]][0] == ident for i in order]
        if not any(rel):
            continue
        firsts.append(rel.index(True))
        aps.append(ap_oracle(rel))
    if not firsts:
        return None
    n = len(firsts)
    return evaluate.EvalReport(
        rank1=sum(f < 1 for f in firsts) / n,
        rank5=sum(f < 5 for f in firsts) / n,
        rank10=sum(f < 10 for f in firsts) / n,
        mean_ap=float(np.mean(aps)),
        query_count=n,
        protocol=protocol,
    )


def random_retrieval_case(seed):
    """Small-integer descriptors, so every dot product and norm is exact in any
    summation order and both implementations see bit-identical similarities.

    The cases hold junk ids, zero vectors, duplicated gallery vectors (exact
    ties broken by id), queries equal to a gallery vector, same-identity
    same-camera entries, and query identities absent from the gallery.
    Multi-query groups have 1, 2 or 4 members so pooled means stay exact.
    """
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 6))

    def vector(pool):
        u = rng.random()
        if u < 0.1:
            return np.zeros(dim)
        if u < 0.35 and pool:
            return pool[int(rng.integers(len(pool)))].copy()
        return rng.integers(-2, 3, dim).astype(np.float64)

    idents = [-1, 0, 1, 2, 3, 4, 5]
    gallery, vectors = {}, []
    for j in range(int(rng.integers(3, 40))):
        ident = idents[int(rng.integers(len(idents)))]
        vec = vector(vectors)
        vectors.append(vec)
        gallery[f"{ident:04d}_c{int(rng.integers(1, 4))}_{j:04d}"] = vec
    queries, seq = {}, 0
    keys = {(idents[int(rng.integers(len(idents)))] if rng.random() < 0.9 else 6,
             int(rng.integers(1, 4))) for _ in range(int(rng.integers(1, 10)))}
    for ident, cam in sorted(keys):
        for _ in range(int(rng.choice([1, 2, 4]))):
            queries[f"{ident:04d}_c{cam}_{seq:04d}"] = vector(vectors)
            seq += 1
    return queries, gallery


@pytest.mark.parametrize("block_rows", [None, 1, 3])
@pytest.mark.parametrize("protocol", ["single", "multi"])
def test_evaluate_retrieval_matches_per_query_oracle(monkeypatch, protocol, block_rows):
    compared = 0
    for seed in range(80):
        queries, gallery = random_retrieval_case(seed)
        usable = sum(parse_image_name(g)[0] not in (0, -1) for g in gallery)
        if block_rows is not None:
            monkeypatch.setattr(evaluate, "BLOCK_CELLS", block_rows * max(usable, 1))
        want = evaluate_oracle(queries, gallery, protocol)
        if want is None:
            with pytest.raises(evaluate.EvalError):
                evaluate.evaluate_retrieval(queries, gallery, protocol)
            continue
        got = evaluate.evaluate_retrieval(queries, gallery, protocol)
        assert (got.rank1, got.rank5, got.rank10, got.query_count, got.protocol) == (
            want.rank1, want.rank5, want.rank10, want.query_count, want.protocol
        ), seed
        assert abs(got.mean_ap - want.mean_ap) < 1e-12, seed
        compared += 1
    assert compared >= 50


def stable_positions(row):
    """Position of every column in the stable descending order of `row`."""
    positions = np.empty(len(row), dtype=np.int64)
    positions[np.argsort(-row, kind="stable")] = np.arange(len(row))
    return positions


def test_relevant_ranks_equal_stable_sort_positions():
    # few distinct values, so most columns tie; -0.0 ties with 0.0, and
    # -inf marks excluded columns, which are never relevant
    rng = np.random.default_rng(17)
    for _ in range(200):
        g = int(rng.integers(1, 60))
        row = rng.integers(-2, 3, g).astype(np.float64)
        row[rng.random(g) < 0.3] *= -1.0
        row[rng.random(g) < 0.1] = -np.inf
        finite = np.flatnonzero(np.isfinite(row))
        for share in (0.1, 0.5, 1.0):
            relevant = finite[rng.random(finite.size) < share]
            if relevant.size:
                want = stable_positions(row)[relevant]
                np.testing.assert_array_equal(evaluate._relevant_ranks(row, relevant), want)


def tied_retrieval_case(seed, kind):
    """Small-integer cases built for rank counting's hard inputs.

    "full": one identity fills the gallery on cameras the queries do not use,
    so nearly every entry is relevant.
    "ties": a few distinct vectors, so many relevant and non-relevant entries
    share one similarity and only the id breaks the tie.
    "zeros": zero-norm vectors (similarity 0), vectors orthogonal to the query
    (0.0) and vectors whose tiny negative cosine underflows to -0.0 tie with
    relevant entries.
    """
    rng = np.random.default_rng(seed)
    dim = 3
    if kind == "full":
        pool = [rng.integers(-2, 3, dim).astype(np.float64) for _ in range(6)]
    elif kind == "ties":
        pool = [np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]), np.array([2.0, 2.0, 0.0])]
    else:
        tiny = np.nextafter(0.0, 1.0)  # cosine tiny / 2 rounds to a signed zero
        pool = [np.zeros(dim), np.array([0.0, -1.0, 0.0]), np.array([0.0, 0.0, 2.0]),
                np.array([-tiny, 2.0, 0.0]), np.array([tiny, 2.0, 0.0]),
                np.array([1.0, 0.0, 0.0])]
    gallery = {}
    for j in range(int(rng.integers(20, 60))):
        ident = 1 if kind == "full" and rng.random() < 0.95 else int(rng.integers(1, 4))
        cam = int(rng.integers(2, 4))
        gallery[f"{ident:04d}_c{cam}_{j:04d}"] = pool[int(rng.integers(len(pool)))].copy()
    queries = {}
    for j in range(int(rng.integers(1, 8))):
        ident = 1 if kind == "full" else int(rng.integers(1, 4))
        vec = np.array([-1.0, 0.0, 0.0]) if kind == "zeros" and j % 2 else pool[-1].copy()
        cam = 1 if kind == "full" else int(rng.integers(1, 4))
        queries[f"{ident:04d}_c{cam}_{j:04d}"] = vec
    return queries, gallery


@pytest.mark.parametrize("kind", ["full", "ties", "zeros"])
@pytest.mark.parametrize("protocol", ["single", "multi"])
def test_evaluate_retrieval_matches_oracle_on_tied_cases(protocol, kind):
    compared = 0
    for seed in range(30):
        queries, gallery = tied_retrieval_case(seed, kind)
        want = evaluate_oracle(queries, gallery, protocol)
        if want is None:
            continue
        got = evaluate.evaluate_retrieval(queries, gallery, protocol)
        assert (got.rank1, got.rank5, got.rank10, got.query_count) == (
            want.rank1, want.rank5, want.rank10, want.query_count
        ), seed
        assert abs(got.mean_ap - want.mean_ap) < 1e-12, seed
        compared += 1
    assert compared >= 20


@pytest.mark.parametrize("protocol", ["single", "multi"])
@pytest.mark.parametrize("side", ["query", "gallery"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_retrieval_rejects_non_finite_descriptor(protocol, side, bad):
    queries, gallery = toy_setup()
    descs = queries if side == "query" else gallery
    image_id = sorted(descs)[1]
    descs[image_id][3] = bad
    with pytest.raises(evaluate.EvalError, match=f"{image_id!r} is not finite"):
        evaluate.evaluate_retrieval(queries, gallery, protocol)


def test_evaluate_retrieval_rejects_overflowing_similarity():
    # 1e200 squared overflows float64: the norms become inf and an exact
    # duplicate of the query used to rank below an unrelated vector
    queries = {"0001_c1_0000": np.full(4, 1e200)}
    gallery = {"0001_c2_0000": np.full(4, 1e200), "0002_c2_0000": np.array([1.0, 0, 0, 0])}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(evaluate.EvalError, match="overflows"):
            evaluate.evaluate_retrieval(queries, gallery, "single")
        # a query alone out of range would give every similarity 0, not an error
        gallery["0001_c2_0000"] = np.ones(4)
        with pytest.raises(evaluate.EvalError, match="overflows.*'0001_c1_0000'"):
            evaluate.evaluate_retrieval(queries, gallery, "single")


def test_evaluate_retrieval_memory_stays_near_the_gallery(monkeypatch):
    rng = np.random.default_rng(9)
    n_gallery, dim, n_query = 4000, 512, 64
    gallery = {f"{1 + j % 50:04d}_c{1 + j % 3}_{j:05d}": rng.standard_normal(dim)
               for j in range(n_gallery)}
    queries = {f"{1 + j % 50:04d}_c1_{j:05d}": rng.standard_normal(dim) for j in range(n_query)}
    monkeypatch.setattr(evaluate, "BLOCK_CELLS", 16 * n_gallery)  # 4 query blocks
    tracemalloc.start()
    try:
        evaluate.evaluate_retrieval(queries, gallery, "single")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n_gallery * dim * 8, peak
