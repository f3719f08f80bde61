"""The three benchmark workloads: input synthesis, one closed-loop operation,
and the checks on its outputs.

Each workload has `setup(work_dir, seed)`, which builds every input from the
seed and returns a state object, and `run(state, op_dir, tracer)`, which
runs one operation under the tracer and returns an `OpResult`; the train
workload reads its per-stage `train_step` spans from the tracer. Every
check failure is a string in `OpResult.failures`.
"""
from __future__ import annotations

import re
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cdpm import alignment, data, evaluate, pipeline, tensorio, training
from cdpm.annotations import load_annotations
from cdpm.augment import AugmentationConfig
from cdpm.losses import TripletConfig
from cdpm.model import CdpmNetwork, ModelConfig

perf = time.perf_counter


@dataclass
class OpResult:
    wall_s: float
    # phase -> (items, seconds) samples, from which the `Rate`s are taken
    samples: dict[str, list[tuple[float, float]]]
    failures: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)


def _full_model(classes: int) -> ModelConfig:
    """Refinement, alignment and multi-granularity features all on."""
    return ModelConfig(classes=classes, with_refinement=True, with_alignment=True,
                       with_mgf=True)


# ---------------------------------------------------------------------------
# train: run_training on 12 identities x 8 images


TRAIN_IDENTITIES, TRAIN_IMAGES = 12, 8
TRAIN_SETTINGS = dict(
    epoch_scale=0.1,  # 5 / 4 / 3 epochs
    batch_size=16,
    triplet=TripletConfig(identities_per_batch=4, images_per_identity=4),
    augmentation=AugmentationConfig(translation_copies=1, erase_probability=0.25),
)
CHECK_BATCH = 8


@dataclass
class TrainState:
    index: data.DatasetIndex
    model_cfg: ModelConfig
    settings: training.TrainSettings


def train_setup(work: Path, seed: int) -> TrainState:
    # the generator needs a test split; two small identities suffice
    index = data.generate_benchmark(
        work / "data", TRAIN_IDENTITIES, TRAIN_IMAGES, 2, 3, seed=seed
    )
    return TrainState(
        index=index,
        model_cfg=_full_model(index.class_count),
        settings=training.TrainSettings(seed=seed, **TRAIN_SETTINGS),
    )


def train_run(state: TrainState, op_dir: Path, tracer) -> OpResult:
    first_span = len(tracer.spans)
    t0 = perf()
    with tracer:
        result = training.run_training(
            state.index, state.model_cfg, state.settings, op_dir / "run"
        )
    wall = perf() - t0
    batch = state.settings.batch_size
    samples = {f"stage{k}": [] for k in (1, 2, 3)}
    for name, start, end, _, _ in tracer.spans[first_span:]:
        if name.startswith("training.train_step.stage"):
            samples[f"stage{name[-1]}"].append((batch, end - start))
    images = sum(n for stage in samples.values() for n, _ in stage)
    samples["run"] = [(images, wall)]

    failures = []
    rows = result.log_rows
    terms = ("loss_f", "loss_c", "loss_r", "loss_g", "total", "lr")
    for row in rows:
        if not all(np.isfinite(row[k]) for k in terms):
            failures.append(f"non-finite log row {row}")
    stage1 = [r["total"] for r in rows if r["stage"] == "stage1_baseline"]
    if not (len(stage1) >= 2 and stage1[-1] < stage1[0]):
        failures.append(f"stage-1 total loss did not fall: {stage1}")
    batch = np.stack(
        [data.load_image(r.path) for r in state.index.split("train")[:CHECK_BATCH]]
    )
    reloaded = CdpmNetwork.load(result.final_checkpoint)
    if not np.array_equal(reloaded.descriptor(batch), result.network.descriptor(batch)):
        failures.append("final.cdpm reloads to different descriptors")
    quality = {f"final.{k}": float(rows[-1][k]) for k in terms[:-1]}
    shutil.rmtree(op_dir / "run")
    return OpResult(wall, samples, failures, quality)


# ---------------------------------------------------------------------------
# extract: what `cdpm extract` (query, gallery) and `cdpm align` do


EXTRACT_TEST_IDENTITIES, EXTRACT_TEST_IMAGES = 100, 6  # 200 query, 400 gallery
SELECTION = alignment.SelectionConfig(0.60)


@dataclass
class ExtractState:
    index: data.DatasetIndex
    annotations: dict
    net: CdpmNetwork


def extract_setup(work: Path, seed: int) -> ExtractState:
    index = data.generate_benchmark(
        work / "data", TRAIN_IDENTITIES, TRAIN_IMAGES,
        EXTRACT_TEST_IDENTITIES, EXTRACT_TEST_IMAGES, seed=seed,
    )
    net = CdpmNetwork(_full_model(index.class_count),
                      np.random.default_rng(np.random.SeedSequence([seed, 0xE7])))
    calib = index.split("train")[: TRAIN_SETTINGS["batch_size"]]
    net.calibrate(np.stack([data.load_image(r.path) for r in calib]))
    net.save(work / "net.cdpm")
    return ExtractState(
        index=index,
        annotations=load_annotations(index.annotations_path),
        net=CdpmNetwork.load(work / "net.cdpm"),
    )


def _check_descriptors(descs, records, dim) -> list[str]:
    failures = []
    if list(descs) != [r.image_id for r in records]:
        failures.append("descriptor ids differ from the split's records")
    for image_id, vec in descs.items():
        if vec.shape != (dim,) or not np.all(np.isfinite(vec)):
            failures.append(f"{image_id}: descriptor shape {vec.shape} or non-finite")
    return failures


def extract_run(state: ExtractState, op_dir: Path, tracer) -> OpResult:
    samples, descs = {}, {}
    t0 = perf()
    with tracer:
        for split in ("query", "gallery"):
            t = perf()
            descs[split] = pipeline.extract_descriptors(state.net, state.index, split,
                                                        SELECTION)
            samples[split] = [(len(descs[split]), perf() - t)]
        t = perf()
        report = pipeline.alignment_report(state.net, state.index, state.annotations,
                                           selection=SELECTION)
        samples["align"] = [(len(report.rows) / state.net.cfg.parts, perf() - t)]
    wall = perf() - t0

    failures = []
    for split, got in descs.items():
        failures += _check_descriptors(got, state.index.split(split),
                                       state.net.cfg.descriptor_dim)
    for row in report.rows:
        if not (0.0 <= row.iou <= 1.0 and 0.0 <= row.uniform_iou <= 1.0):
            failures.append(f"{row.image_id} part {row.part}: IoU outside [0, 1]")
    quality = {"mean_iou": report.mean_iou, "uniform_mean_iou": report.uniform_mean_iou}
    return OpResult(wall, samples, failures, quality)


# ---------------------------------------------------------------------------
# retrieval: what `cdpm evaluate` does, single then multi


RETRIEVAL_IDENTITIES = 100
QUERIES_PER_IDENTITY = 2  # Q = 200, all camera 1
GALLERY_REAL, GALLERY_JUNK = 990, 10  # G = 1000
DIM = 3072
IDENTITY_SCALE, CAMERA_SCALE = 0.2, 0.1


def retrieval_vectors(seed: int):
    """Clustered query and gallery descriptors keyed by image id.

    Each vector is a scaled identity center plus a scaled camera bias plus
    unit noise. Gallery cameras are drawn from 1..3, so some gallery entries
    share the queries' identity and camera 1 and are excluded; a few junk
    identities (0 and -1) are never ranked.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E7]))
    centers = rng.normal(size=(RETRIEVAL_IDENTITIES, DIM))
    cameras = rng.normal(size=(4, DIM))

    def vec(identity, camera):
        return (IDENTITY_SCALE * centers[identity - 1] + CAMERA_SCALE * cameras[camera]
                + rng.normal(size=DIM))

    query = {
        f"{i:04d}_c1_{j:04d}": vec(i, 1)
        for i in range(1, RETRIEVAL_IDENTITIES + 1)
        for j in range(QUERIES_PER_IDENTITY)
    }
    gallery = {}
    for j in range(GALLERY_REAL):
        identity, camera = 1 + j % RETRIEVAL_IDENTITIES, int(rng.integers(1, 4))
        gallery[f"{identity:04d}_c{camera}_{j:04d}"] = vec(identity, camera)
    for j in range(GALLERY_JUNK):
        identity, camera = (0, -1)[j % 2], 1 + j % 3
        gallery[f"{identity:04d}_c{camera}_{GALLERY_REAL + j:04d}"] = rng.normal(size=DIM)
    return query, gallery


@dataclass
class RetrievalState:
    query_path: Path
    gallery_path: Path
    reference: dict | None = None


def retrieval_setup(work: Path, seed: int) -> RetrievalState:
    query, gallery = retrieval_vectors(seed)
    work.mkdir(parents=True)
    state = RetrievalState(work / "query.bin", work / "gallery.bin")
    tensorio.write_descriptors(state.query_path, query)
    tensorio.write_descriptors(state.gallery_path, gallery)
    return state


_ID = re.compile(r"^(-?\d+)_c(\d+)_\d+$")


def reference_retrieval(query: dict, gallery: dict, protocol: str) -> dict[str, float]:
    """CMC rank-1/5/10 and mAP from one dense similarity matrix.

    Same protocol as `cdpm.evaluate`, written independently: junk ids out,
    same-identity same-camera gallery entries excluded per query, ties in
    similarity broken by ascending gallery id, queries with nothing relevant
    left out of the averages.
    """
    junk = (0, -1)

    def meta(ids):
        parsed = [tuple(int(v) for v in _ID.match(i).groups()) for i in ids]
        return np.array([p[0] for p in parsed]), np.array([p[1] for p in parsed])

    gids = sorted(gallery)  # id order makes the positional tie-break the id tie-break
    gident, gcam = meta(gids)
    keep = ~np.isin(gident, junk)
    gmat = np.stack([gallery[g] for g in gids])[keep]
    gident, gcam = gident[keep], gcam[keep]

    qids = list(query)
    qident, qcam = meta(qids)
    qmat = np.stack([query[q] for q in qids])
    keep = ~np.isin(qident, junk)
    qmat, qident, qcam = qmat[keep], qident[keep], qcam[keep]
    if protocol == "multi":
        keys = sorted(set(zip(qident.tolist(), qcam.tolist())))
        qmat = np.stack([
            np.mean(qmat[(qident == i) & (qcam == c)], axis=0) for i, c in keys
        ])
        qident = np.array([k[0] for k in keys])
        qcam = np.array([k[1] for k in keys])

    qn = np.linalg.norm(qmat, axis=1)[:, None]
    gn = np.linalg.norm(gmat, axis=1)[None, :]
    denom = qn * gn
    sims = np.divide(qmat @ gmat.T, denom, out=np.zeros(denom.shape), where=denom > 0)
    excluded = (qident[:, None] == gident[None, :]) & (qcam[:, None] == gcam[None, :])
    sims[excluded] = -np.inf  # ranked after every valid entry
    order = np.argsort(-sims, axis=1, kind="stable")
    relevant = (qident[:, None] == gident[None, :]) & ~excluded
    rel = np.take_along_axis(relevant, order, axis=1).astype(np.float64)
    n_rel = rel.sum(axis=1)
    usable = n_rel > 0
    rel, n_rel = rel[usable], n_rel[usable]
    positions = np.arange(1, rel.shape[1] + 1)
    ap = ((np.cumsum(rel, axis=1) / positions) * rel).sum(axis=1) / n_rel
    first = rel.argmax(axis=1)
    return {
        "rank1": float(np.mean(first < 1)),
        "rank5": float(np.mean(first < 5)),
        "rank10": float(np.mean(first < 10)),
        "mean_ap": float(np.mean(ap)),
        "query_count": float(rel.shape[0]),
    }


def retrieval_run(state: RetrievalState, op_dir: Path, tracer) -> OpResult:
    samples: dict[str, list[tuple[float, float]]] = {"read": []}
    reports = {}
    t0 = perf()
    with tracer:
        for protocol in ("single", "multi"):
            t = perf()
            query = tensorio.read_descriptors(state.query_path)
            gallery = tensorio.read_descriptors(state.gallery_path)
            t_read = perf()
            samples["read"].append((len(query) + len(gallery), t_read - t))
            reports[protocol] = evaluate.evaluate_retrieval(query, gallery, protocol)
            samples[protocol] = [(len(query), perf() - t_read)]
    wall = perf() - t0

    if state.reference is None:
        state.reference = {p: reference_retrieval(query, gallery, p) for p in reports}
    failures = []
    for protocol, report in reports.items():
        for key, want in state.reference[protocol].items():
            got = float(getattr(report, key))
            if abs(got - want) > 1e-12:
                failures.append(f"{protocol} {key}: {got!r} != reference {want!r}")
    quality = {f"{p}.{k}": getattr(r, k) for p, r in reports.items()
               for k in ("rank1", "mean_ap")}
    return OpResult(wall, samples, failures, quality)


# ---------------------------------------------------------------------------
# end-to-end rates


@dataclass(frozen=True)
class Rate:
    """Items per second over the samples of some phases, pooled over operations.

    "total": all items over all seconds. "median": the median of items/s
    over the samples, for the per-stage step rates.
    """

    name: str
    unit: str
    phases: tuple[str, ...]
    stat: str = "total"

    def value(self, ops: list[OpResult]) -> float:
        pairs = [p for op in ops for phase in self.phases for p in op.samples[phase]]
        if self.stat == "median":
            return float(np.median([n / s for n, s in pairs]))
        return sum(n for n, _ in pairs) / sum(s for _, s in pairs)


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    rates: tuple[Rate, ...]
    # the two rates reported as the gated rate1_per_s and rate2_per_s. Each
    # totals work over most of a run: on a shared 2-vCPU VM the speed swung
    # by a quarter over seconds, so a rate over a few seconds of work (the
    # ~2 s of stage-2 steps) or a median of short samples was not steady
    # enough to gate.
    gated: tuple[str, str]


WORKLOADS = {
    "train": Workload(
        train_setup, train_run,
        (
            Rate("train.stage1_img_per_s", "img/s", ("stage1",)),
            Rate("train.step_img_per_s", "img/s", ("stage1", "stage2", "stage3")),
            Rate("train.img_per_s", "img/s", ("run",)),
            *(Rate(f"train.stage{k}_step_img_per_s", "img/s", (f"stage{k}",), "median")
              for k in (1, 2, 3)),
        ),
        ("train.stage1_img_per_s", "train.step_img_per_s"),
    ),
    "extract": Workload(
        extract_setup, extract_run,
        (
            Rate("extract.img_per_s", "img/s", ("query", "gallery")),
            Rate("align.img_per_s", "img/s", ("align",)),
        ),
        ("extract.img_per_s", "align.img_per_s"),
    ),
    "retrieval": Workload(
        retrieval_setup, retrieval_run,
        (
            Rate("retrieval.single_qps", "query/s", ("single",)),
            Rate("retrieval.multi_qps", "query/s", ("multi",)),
            Rate("retrieval.read_desc_per_s", "desc/s", ("read",)),
        ),
        ("retrieval.single_qps", "retrieval.multi_qps"),
    ),
}
