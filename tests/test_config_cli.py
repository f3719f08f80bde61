"""Config file parsing, overrides, and the command-line surface."""
import csv
import errno
import functools
import importlib
import os
import pkgutil
import re
import shutil
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import cdpm
from cdpm import cli, config, data, ops, pipeline, tensorio
from cdpm.alignment import SelectionConfig
from cdpm.config import ConfigError, apply_assignments, load_config, save_config
from cdpm.losses import LossWeights
from cdpm.model import CdpmNetwork, ModelConfig
from cdpm.training import TrainSettings


def test_defaults():
    cfg = config.Config()
    assert cfg.model.parts == 6 and cfg.train.batch_size == 48
    assert cfg.train.weights.lambda1 == 1.0 and cfg.train.weights.lambda2 == 1.0
    assert cfg.train.triplet.margin == 0.4
    assert cfg.train.triplet.identities_per_batch == 6
    assert cfg.train.triplet.images_per_identity == 8
    assert cfg.train.augmentation.translation_copies == 5
    assert cfg.selection == SelectionConfig(0.60)


def test_threshold_default_and_range():
    """The threshold defaults to 0.60 and is set only by select.threshold, in
    [0, 1]; data.profile is not a key."""
    assert load_config(None).selection.threshold == 0.60
    assert load_config(None, {"select.threshold": "0.35"}).selection.threshold == 0.35
    assert load_config(None, {"select.threshold": "0"}).selection.threshold == 0.0
    with pytest.raises(ConfigError, match="outside"):
        load_config(None, {"select.threshold": "-0.1"})
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(None, {"data.profile": "other"})


def test_parse_config_text_and_file(tmp_path):
    text = """
# a comment
data.root = /data/bench
train.seed = 9
model.mgf = true
loss.lambda2 = 0.5   # trailing comment
select.threshold = 0.35
"""
    path = tmp_path / "run.conf"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.data_root == "/data/bench"
    assert cfg.train.seed == 9
    assert cfg.model.with_mgf is True
    assert cfg.train.weights.lambda2 == 0.5
    assert cfg.selection.threshold == 0.35


def test_overrides_win_over_file_and_seed_wins_over_all(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("train.seed = 1\nloss.margin = 0.3\n")
    cfg = load_config(path, {"loss.margin": "0.7", "train.seed": "2"}, seed=5)
    assert cfg.train.triplet.margin == 0.7
    assert cfg.train.seed == 5


def test_unknown_key_and_bad_value_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_assignments(config.Config(), {"no.such": "1"})
    with pytest.raises(ConfigError, match="cannot parse"):
        apply_assignments(config.Config(), {"train.seed": "abc"})
    with pytest.raises(ConfigError):
        load_config(None, {"model.mgf": "maybe"})


def test_mgf_needs_six_parts(tmp_path):
    with pytest.raises(ConfigError, match="need 6 parts, got 5"):
        load_config(None, {"model.mgf": "true", "model.parts": "5"})
    assert load_config(None, {"model.mgf": "true", "model.parts": "6"}).model.with_mgf
    rc = cli.main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "run"),
                   "--set", "model.mgf=true", "--set", "model.parts=5"])
    assert rc == cli.EXIT_USAGE


def test_assignments_apply_together(tmp_path):
    """A file's model.parts = 8 and --set model.mgf=true model.parts=6 make a
    valid run, though mgf with 8 parts would fail on the way."""
    path = tmp_path / "run.conf"
    path.write_text("model.parts = 8\n")
    cfg = load_config(path, {"model.mgf": "true", "model.parts": "6"})
    assert cfg.model.with_mgf and cfg.model.parts == 6


def test_save_config_roundtrip(tmp_path):
    cfg = config.Config(data_root="/x", selection=SelectionConfig(0.35),
                        model=ModelConfig(classes=1, with_mgf=True),
                        train=TrainSettings(seed=4, epoch_scale=0.25))
    path = tmp_path / "out.conf"
    save_config(path, cfg)
    again = load_config(path)
    assert again == cfg


def test_config_factories():
    cfg = config.Config(model=replace(config.Config().model, with_mgf=True),
                        train=TrainSettings(weights=LossWeights(lambda1=0.5)))
    mc = cfg.model_config(classes=7)
    assert mc == replace(cfg.model, classes=7) and mc.with_mgf
    assert cfg.train.weights.lambda1 == 0.5
    assert cfg.train.triplet.batch_size == 48
    assert cfg.train.augmentation.translation_copies == 5


def _leaf_paths(obj, prefix: str) -> list[str]:
    out = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        path = f"{prefix}.{f.name}"
        out += _leaf_paths(value, path) if is_dataclass(value) else [path]
    return out


def test_key_map_reaches_every_run_setting_once():
    cfg = config.Config()
    assert [f.name for f in fields(cfg)] == [
        "data_root", "selection", "model", "train"
    ]
    targets = list(config.KEY_MAP.values())
    assert len(targets) == len(set(targets)) == 21
    model = set(_leaf_paths(cfg.model, "model")) - {
        "model.classes", "model.backbone_channels"
    }
    train = set(_leaf_paths(cfg.train, "train"))
    assert set(targets) == {"data_root", "selection.threshold"} | model | train


def unresolved_code_names(text: str) -> set[str]:
    """Every backticked `module.name[.attr]` whose first part is a cdpm
    module and which does not resolve; config keys and the file name
    `config.used` are not code."""
    modules = {m.name for m in pkgutil.iter_modules(cdpm.__path__)}
    out = set()
    for dotted in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?: = [^`\n]+)?`", text):
        module, *attrs = dotted.split(".")
        if module not in modules or dotted in config.KEY_MAP or dotted == "config.used":
            continue
        try:
            functools.reduce(getattr, attrs, importlib.import_module(f"cdpm.{module}"))
        except AttributeError:
            out.add(dotted)
    return out


def test_readme_names_only_existing_config_keys():
    """Every `section.key` the README passes to --set, or names in backticks
    (alone or as `section.key = value`), is a config key; a backticked name
    of a cdpm module's attribute, such as `data.load_image`, is code, and
    every such name resolves."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text("utf-8")
    sections = {key.partition(".")[0] for key in config.KEY_MAP}

    def is_code(section, name):
        try:
            return hasattr(importlib.import_module(f"cdpm.{section}"), name)
        except ImportError:
            return False

    flags = re.findall(r"--set ([a-z]+)\.([a-z0-9_]+)=", text)
    spans = re.findall(r"`([a-z]+)\.([a-z0-9_]+)(?: = [^`\n]+)?`", text)
    named = {f"{s}.{n}" for s, n in flags + spans if s in sections and not is_code(s, n)}
    assert "select.threshold" in named and "train.epoch_scale" in named
    assert named <= set(config.KEY_MAP), named - set(config.KEY_MAP)
    assert not unresolved_code_names(text)
    assert unresolved_code_names(
        text + "\nThe uniform tops are `alignment.uniform_tops`.\n"
    ) == {"alignment.uniform_tops"}


#: a non-default value for every key but model.mgf, which needs the default
#: 6 parts and is set on its own
NON_DEFAULT = {
    "data.root": "/d", "model.parts": "8",
    "model.feature_dim": "32", "model.holistic_dim": "24",
    "model.attention_reduction": "4", "model.refinement": "false",
    "model.alignment": "false", "loss.lambda1": "0.5", "loss.lambda2": "0.25",
    "loss.margin": "0.3", "triplet.identities_per_batch": "3",
    "triplet.images_per_identity": "2", "select.threshold": "0.45",
    "train.seed": "3", "train.epoch_scale": "0.2", "train.batch_size": "16",
    "train.momentum": "0.8",
    "augment.translation_copies": "2", "augment.flip_probability": "0.4",
    "augment.erase_probability": "0.25",
}


@pytest.mark.parametrize("assignments", [NON_DEFAULT, {"model.mgf": "true"}],
                         ids=["all_but_mgf", "mgf"])
def test_every_key_round_trips(tmp_path, assignments):
    assert set(NON_DEFAULT) | {"model.mgf"} == set(config.KEY_MAP)
    cfg = load_config(None, assignments)
    default = config.Config()

    def value(c, key):
        return functools.reduce(getattr, config.KEY_MAP[key].split("."), c)

    for key in assignments:
        assert value(cfg, key) != value(default, key), key
    path = tmp_path / "out.conf"
    save_config(path, cfg)
    assert load_config(path) == cfg


# ---------------------------------------------------------------------------
# CLI


def test_cli_usage_errors():
    assert cli.main([]) == cli.EXIT_USAGE
    assert cli.main(["no-such-command"]) == cli.EXIT_USAGE
    assert cli.main(["evaluate"]) == cli.EXIT_USAGE  # missing required args
    assert cli.main(
        ["synth-data", "--out", "/tmp/x", "--set", "badpair"]
    ) == cli.EXIT_USAGE
    assert cli.main(
        ["synth-data", "--out", "/tmp/x", "--set", "no.such=1"]
    ) == cli.EXIT_USAGE


def test_cli_synth_data_and_dataset_roundtrip(tmp_path, capsys):
    out = tmp_path / "bench"
    rc = cli.main([
        "synth-data", "--out", str(out), "--identities", "3",
        "--images-per-id", "2", "--test-identities", "2",
        "--test-images-per-id", "3", "--seed", "7",
    ])
    assert rc == cli.EXIT_OK
    index = data.load_dataset(out)
    assert index.class_count == 3
    assert "train classes" in capsys.readouterr().out


def test_cli_evaluate_on_descriptor_dumps(tmp_path, capsys):
    rng = np.random.default_rng(0)
    centers = {1: rng.standard_normal(6), 2: rng.standard_normal(6) + 3}
    queries = {f"{i:04d}_c1_0000": centers[i] for i in (1, 2)}
    gallery = {f"{i:04d}_c2_{j:04d}": centers[i] + 0.01 * rng.standard_normal(6)
               for i in (1, 2) for j in range(2)}
    qpath, gpath = tmp_path / "q.bin", tmp_path / "g.bin"
    tensorio.write_descriptors(qpath, queries)
    tensorio.write_descriptors(gpath, gallery)
    report = tmp_path / "report.csv"
    rc = cli.main(["evaluate", "--query", str(qpath), "--gallery", str(gpath),
                   "--out", str(report)])
    assert rc == cli.EXIT_OK
    text = report.read_text()
    assert text.startswith("metric,value")
    assert "rank1,1.000000" in text
    assert "rank-1 1.0000" in capsys.readouterr().out


def _missing(paths, side):
    paths[side].unlink()
    yield str(paths[side])


def _every_cut(paths, side):
    blob = paths[side].read_bytes()
    assert len(blob) == 110
    for cut in range(len(blob)):  # a cut at the record boundary (byte 60) too
        paths[side].write_bytes(blob[:cut])
        yield f"{paths[side]}: truncated"


def _non_finite(paths, side):
    descs = tensorio.read_descriptors(paths[side])
    tensorio.write_descriptors(paths[side], {k: np.where(np.arange(v.size) == 1, np.nan, v)
                                             for k, v in descs.items()})
    yield f"{next(iter(descs))!r} is not finite"


def _zero_length(paths, side):
    # both dumps, so neither side fails the one-length check first; the
    # gallery is checked first, so its first entry is the one named
    for path in paths.values():
        descs = tensorio.read_descriptors(path)
        tensorio.write_descriptors(path, {k: v[:0] for k, v in descs.items()})
    yield f"descriptor of {next(iter(tensorio.read_descriptors(paths['gallery'])))!r} is empty"


#: bad dump kind -> a generator that spoils the `side` dump of good `paths`
#: in place, once per case, and yields the text the error must hold
BAD_DUMPS = {
    "missing": _missing,
    "truncated": _every_cut,
    "non_finite": _non_finite,
    "zero_length": _zero_length,
}


@pytest.mark.parametrize("side", ["query", "gallery"])
@pytest.mark.parametrize("kind", BAD_DUMPS)
def test_cli_evaluate_bad_dump_is_data_error(tmp_path, capsys, kind, side):
    """A missing, truncated (at every byte), non-finite or zero-length query
    or gallery dump is one data error line naming its cause, and no report."""
    rng = np.random.default_rng(1)
    paths = {s: tmp_path / f"{s}.bin" for s in ("query", "gallery")}
    tensorio.write_descriptors(paths["query"], {f"{i:04d}_c1_0000": rng.standard_normal(4)
                                                for i in (1, 2)})
    tensorio.write_descriptors(paths["gallery"], {f"{i:04d}_c2_0000": rng.standard_normal(4)
                                                  for i in (1, 2)})
    report = tmp_path / "r.csv"
    for cause in BAD_DUMPS[kind](paths, side):
        rc = cli.main(["evaluate", "--query", str(paths["query"]),
                       "--gallery", str(paths["gallery"]), "--out", str(report)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_DATA, err
        assert err.count("\n") == 1 and err.startswith("data error:") and cause in err, err
        assert "Traceback" not in err and not report.exists()


def test_cli_train_extract_align_evaluate_pipeline(tmp_path, capsys):
    bench = tmp_path / "bench"
    assert cli.main([
        "synth-data", "--out", str(bench), "--identities", "6",
        "--images-per-id", "4", "--test-identities", "3",
        "--test-images-per-id", "3", "--seed", "3",
    ]) == cli.EXIT_OK
    run = tmp_path / "run"
    rc = cli.main([
        "train", "--data", str(bench), "--out", str(run), "--seed", "3",
        "--set", "train.epoch_scale=0.02",
        "--set", "train.batch_size=6",
        "--set", "augment.translation_copies=1",
        "--set", "model.feature_dim=16",
        "--set", "model.holistic_dim=16",
    ])
    assert rc == cli.EXIT_OK
    assert "last epoch total loss:" in capsys.readouterr().out
    final = run / "final.cdpm"
    assert final.exists() and (run / "config.used").exists()

    qdump = tmp_path / "q.bin"
    assert cli.main([
        "extract", "--checkpoint", str(final), "--data", str(bench),
        "--split", "query", "--out", str(qdump),
    ]) == cli.EXIT_OK
    gdump = tmp_path / "g.bin"
    assert cli.main([
        "extract", "--checkpoint", str(final), "--data", str(bench),
        "--split", "gallery", "--out", str(gdump),
    ]) == cli.EXIT_OK
    descs = tensorio.read_descriptors(qdump)
    assert all(v.size == 6 * 16 for v in descs.values())

    align_csv = tmp_path / "align.csv"
    assert cli.main([
        "align", "--checkpoint", str(final), "--data", str(bench),
        "--out", str(align_csv),
    ]) == cli.EXIT_OK
    lines = align_csv.read_text().strip().splitlines()
    assert lines[0] == "image_id,part,window,top,iou,uniform_iou"
    assert len(lines) == 1 + 9 * 6  # (query+gallery images) x parts

    report = tmp_path / "report.csv"
    assert cli.main([
        "evaluate", "--query", str(qdump), "--gallery", str(gdump),
        "--protocol", "multi", "--out", str(report),
    ]) == cli.EXIT_OK
    assert "protocol,multi" in report.read_text()
    out = capsys.readouterr().out
    assert "mean IoU" in out


def test_cli_train_and_align_with_eight_parts(tmp_path):
    bench = tmp_path / "bench"
    assert cli.main([
        "synth-data", "--out", str(bench), "--identities", "6",
        "--images-per-id", "4", "--test-identities", "3",
        "--test-images-per-id", "3", "--seed", "3",
    ]) == cli.EXIT_OK
    run = tmp_path / "run"
    assert cli.main([
        "train", "--data", str(bench), "--out", str(run), "--seed", "3",
        "--set", "model.parts=8",
        "--set", "train.epoch_scale=0.02",
        "--set", "train.batch_size=6",
        "--set", "augment.translation_copies=1",
        "--set", "model.feature_dim=16",
    ]) == cli.EXIT_OK
    align_csv = tmp_path / "align.csv"
    assert cli.main([
        "align", "--checkpoint", str(run / "final.cdpm"), "--data", str(bench),
        "--out", str(align_csv),
    ]) == cli.EXIT_OK
    assert len(align_csv.read_text().strip().splitlines()) == 1 + 9 * 8


def test_cli_ablate_grid_rows_and_shared_stage1(tmp_path, capsys, tiny_bench):
    """Each weight is drawn from the seed and its own name, and stage 1 trains
    with refinement off, so runs that differ only in refinement end stage 1
    with the same baseline parameters, bit for bit."""
    index, _ = tiny_bench
    out, runs = tmp_path / "ablation.csv", tmp_path / "runs"
    rc = cli.main([
        "ablate", "--data", str(index.root), "--out", str(out), "--workdir", str(runs),
        "--seed", "4", "--set", "train.epoch_scale=0.02", "--set", "train.batch_size=6",
        "--set", "augment.translation_copies=1", "--set", "model.feature_dim=16",
    ])
    assert rc == cli.EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["config"] for r in rows] == [name for name, _ in pipeline.ABLATION_CONFIGS]
    for row in rows:
        for metric in ("rank1", "mAP", "meanIoU"):
            assert 0.0 <= float(row[metric]) <= 1.0, row
    assert "cdpm: rank1" in capsys.readouterr().out
    for a, b in (("baseline", "baseline_h"), ("baseline_v", "cdpm")):
        nets = [CdpmNetwork.load(runs / name / "stage1_baseline.cdpm") for name in (a, b)]
        params = [n.baseline_parameters() for n in nets]
        assert [p.name for p in params[0]] == [p.name for p in params[1]]
        for p, q in zip(*params):
            assert np.array_equal(p.value, q.value), (a, b, p.name)


@pytest.mark.parametrize("fault", [None, "no_boundaries", "empty_query"])
def test_cli_ablate_without_alignment_truth_fails_before_training(
    tmp_path, capsys, tiny_bench, fault
):
    """Alignment cannot be scored without the annotation file, or when no
    query or gallery image has body rows, and nothing can be ranked with an
    empty query split: a data error before any training."""
    index, anns = tiny_bench
    bench = tmp_path / "bench"
    shutil.copytree(index.root, bench)
    cause = ("no query or gallery image offers aligned ground truth to score in "
             f"{bench / 'annotations.csv'}")
    if fault == "empty_query":
        for path in (bench / "query").iterdir():
            path.unlink()
        cause = "split 'query' is empty"
    else:
        (bench / "annotations.csv").unlink()
    if fault == "no_boundaries":
        (bench / "annotations.csv").write_text(
            "".join(f"{image_id},,,5000,5000,manual\n" for image_id in anns), "utf-8")
    runs = tmp_path / "runs"
    rc = cli.main([
        "ablate", "--data", str(bench), "--out", str(tmp_path / "ablation.csv"),
        "--workdir", str(runs), "--set", "train.epoch_scale=0.02",
        "--set", "train.batch_size=6", "--set", "augment.translation_copies=1",
    ])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == f"data error: {cause}\n"
    assert not list(runs.rglob("*.cdpm")) and not list(runs.rglob("train_log.csv"))


def test_cli_train_requires_data(tmp_path):
    assert cli.main(["train", "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE


def _set_meta(field, value):
    def edit(tensors):
        tensors["__meta__"][CdpmNetwork._META_FIELDS.index(field)] = value
    return edit


def _set_channel(i, value):
    def edit(tensors):
        tensors["__meta_channels__"][i] = value
    return edit


@pytest.fixture(scope="module")
def extract_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("meta")
    bench = root / "bench"
    assert cli.main([
        "synth-data", "--out", str(bench), "--identities", "2",
        "--images-per-id", "2", "--test-identities", "2",
        "--test-images-per-id", "2", "--seed", "5",
    ]) == cli.EXIT_OK
    cfg = ModelConfig(classes=2, backbone_channels=(4, 8, 8, 8, 8), feature_dim=8,
                      holistic_dim=8, attention_reduction=4)
    checkpoint = root / "net.cdpm"
    CdpmNetwork(cfg, np.random.default_rng(0)).save(checkpoint)
    return bench, tensorio.load_tensors(checkpoint)


def _run_on_checkpoint(tmp_path, bench, tensors, command="extract", cut=None):
    """Run `command` on a checkpoint of `tensors`, its first `cut` bytes if
    given; the output path is tmp_path / "out"."""
    checkpoint = tmp_path / "edited.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    if cut is not None:
        checkpoint.write_bytes(checkpoint.read_bytes()[:cut])
    args = ["--split", "query"] if command == "extract" else []
    return cli.main([command, "--checkpoint", str(checkpoint), "--data", str(bench),
                     "--out", str(tmp_path / "out"), *args])


def _assert_one_data_error(tmp_path, capsys, rc):
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error:"), err
    assert "Traceback" not in err and not (tmp_path / "out").exists()
    return err


def test_cli_extract_accepts_intact_checkpoint_meta(tmp_path, extract_inputs):
    bench, tensors = extract_inputs
    assert _run_on_checkpoint(tmp_path, bench, dict(tensors)) == cli.EXIT_OK


@pytest.mark.parametrize("command", ["extract", "align"])
@pytest.mark.parametrize("edit,message", [
    (lambda t: t.pop("__meta__"), "__meta__ must hold 8 values, found missing"),
    (lambda t: t.pop("__meta_channels__"), "__meta_channels__ must hold 5 values"),
    (lambda t: t.update(__meta__=t["__meta__"][:-1]), "found shape (7,)"),
    (_set_meta("classes", np.inf), "classes = inf"),
    (_set_meta("feature_dim", np.nan), "feature_dim = nan"),
    (_set_meta("parts", 6.5), "parts = 6.5 is not an integer in [1, 24]"),
    (_set_meta("parts", 25.0), "parts = 25.0"),
    (_set_meta("classes", 0.0), "classes = 0.0"),
    (_set_meta("holistic_dim", 1e300), "holistic_dim = 1e+300"),
    (_set_meta("with_mgf", 2.0), "with_mgf = 2.0 is not an integer in [0, 1]"),
    (_set_channel(2, -8.0), "conv3 = -8.0"),
    (_set_channel(4, np.inf), "conv5 = inf"),
])
def test_cli_extract_rejects_bad_checkpoint_meta(tmp_path, capsys, extract_inputs,
                                                  edit, message, command):
    bench, tensors = extract_inputs
    tensors = {k: v.copy() for k, v in tensors.items()}
    edit(tensors)
    err = _assert_one_data_error(tmp_path, capsys,
                                 _run_on_checkpoint(tmp_path, bench, tensors, command))
    assert message in err, err


@pytest.mark.parametrize("command", ["extract", "align"])
@pytest.mark.parametrize("cut", [0, 5, 100, -1], ids=["0", "5", "100", "one_short"])
def test_cli_rejects_cut_checkpoint(tmp_path, capsys, extract_inputs, command, cut):
    bench, tensors = extract_inputs
    err = _assert_one_data_error(tmp_path, capsys,
                                 _run_on_checkpoint(tmp_path, bench, tensors, command, cut))
    assert "edited.cdpm" in err, err


def test_checkpoint_with_mgf_and_five_parts_is_data_error(tmp_path, capsys,
                                                          extract_inputs):
    bench, tensors = extract_inputs
    tensors = {k: v.copy() for k, v in tensors.items()}
    _set_meta("parts", 5.0)(tensors)
    _set_meta("with_mgf", 1.0)(tensors)
    checkpoint = tmp_path / "mgf5.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    with pytest.raises(tensorio.FormatError, match="need 6 parts, got 5"):
        CdpmNetwork.load(checkpoint)
    assert _run_on_checkpoint(tmp_path, bench, tensors) == cli.EXIT_DATA
    assert "need 6 parts" in capsys.readouterr().err


def _truncate(path):
    path.write_bytes(path.read_bytes()[:-1])


def _directory(path):
    path.unlink()
    path.mkdir()


#: bad image kind -> (how the first query image is spoiled, the cause named)
BAD_IMAGES = {
    "resized": (lambda path: data.write_ppm(path, data.read_ppm(path)[:200]),
                "image is 128x200 pixels, expected 128x384"),
    "truncated": (_truncate, "truncated pixel data"),
    "not_ppm": (lambda path: path.write_bytes(b"GIF89a" + bytes(64)), "not a binary PPM"),
    "empty": (lambda path: path.write_bytes(b""), "not a binary PPM"),
    "maxval": (lambda path: path.write_bytes(b"P6\n128 384\n65535\n" + bytes(384 * 128 * 6)),
               "unsupported max value 65535"),
    "directory": (_directory, "Is a directory"),
}


@pytest.mark.parametrize("kind", BAD_IMAGES)
@pytest.mark.parametrize("command", ["extract", "align"])
def test_cli_bad_image_is_data_error(tmp_path, capsys, monkeypatch, block_passes,
                                     extract_inputs, command, kind):
    """A bad first image, and a bad image in a later chunk while the chunk
    before it is on the backbone workers: each is one data error line, no
    output file, and every backbone pass started has ended on return."""
    bench, tensors = extract_inputs
    checkpoint = tmp_path / "net.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    spoil, cause = BAD_IMAGES[kind]
    args = ["--split", "query"] if command == "extract" else []
    # the query split holds 2 images: one-image chunks put the second in chunk 2
    for position, chunk in ((0, cdpm.model.FEATURE_CHUNK), (1, 1)):
        monkeypatch.setattr(cdpm.model, "FEATURE_CHUNK", chunk)
        block_passes.clear()
        copy = tmp_path / f"bench{position}"
        shutil.copytree(bench, copy)
        spoiled = data.load_dataset(copy).split("query")[position].path
        spoil(spoiled)
        out = tmp_path / f"out{position}"
        rc = cli.main([command, "--checkpoint", str(checkpoint), "--data", str(copy),
                       "--out", str(out), *args])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("data error:"), err
        assert str(spoiled) in err and cause in err, err
        assert not out.exists()
        assert len(block_passes) == position and all(block_passes), block_passes


_QUICK_TRAIN = ["--set", "train.epoch_scale=0.02", "--set", "train.batch_size=6",
                "--set", "augment.translation_copies=1", "--set", "model.feature_dim=16"]


def _command_args(command, checkpoint, out, workdir):
    """`command`'s arguments but `--data`, writing to `out` (and `workdir`)."""
    return {
        "synth-data": ["--out", str(out)],
        "extract": ["--checkpoint", str(checkpoint), "--split", "query", "--out", str(out)],
        "align": ["--checkpoint", str(checkpoint), "--out", str(out)],
        "train": ["--out", str(out), *_QUICK_TRAIN],
        "ablate": ["--out", str(out), "--workdir", str(workdir), *_QUICK_TRAIN],
        "evaluate": ["--query", "q.bin", "--gallery", "g.bin", "--out", str(out)],
    }[command]


@pytest.mark.parametrize("command", ["align", "train", "ablate"])
@pytest.mark.parametrize("line,message", [
    ("0001_c1_0000,0,384,9000,9000", "expected 6 fields, got 5"),
    ("0001_c1_0000,top,384,9000,9000,manual", "could not convert string to float"),
    ("0001_c1_0000,0,384,nan,9000,manual", "cannot convert float NaN to integer"),
    ("0001_c1_0000,0,384,inf,9000,manual", "cannot convert float infinity"),
    ("0001_c1_0000,200,100,9000,9000,manual", "must satisfy 0 <= U < V <= 384"),
    ("0001_c1_0000,0,384,-5,9000,manual", "negative pixel count -5"),
    ("0001_c1_0000,0,384,9000,9000,drawn", "unknown source 'drawn'"),
])
def test_cli_align_bad_annotation_file_exit_code(tmp_path, capsys, extract_inputs,
                                                  line, message, command):
    """A bad annotation line is one data error naming file:line, before any
    output file or directory is made, in every command that reads the file."""
    bench, tensors = extract_inputs
    copy = tmp_path / "bench"
    shutil.copytree(bench, copy)
    (copy / "annotations.csv").write_text(f"# header comment\n{line}\n")
    checkpoint = tmp_path / "net.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    out, workdir = tmp_path / "out", tmp_path / "runs"
    rc = cli.main([command, "--data", str(copy),
                   *_command_args(command, checkpoint, out, workdir)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error:"), err
    assert "annotations.csv:2:" in err and message in err, err
    assert not out.exists() and not workdir.exists()


def test_cli_train_bad_data_writes_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    rc = cli.main(["train", "--data", str(tmp_path / "nope"), "--out", str(out)])
    assert rc == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("data error:"), err
    assert not out.exists()


def test_cli_train_without_room_for_the_feature_cache(tmp_path, capsys, monkeypatch,
                                                     block_passes, extract_inputs):
    """When the temporary directory cannot hold stage 2's feature cache,
    `train` is one data error line and no traceback, raised before any
    write into the cache, and the backbone pass in flight has ended."""
    bench, _ = extract_inputs

    def full(fd, offset, length):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(os, "posix_fallocate", full)
    monkeypatch.setattr(cdpm.model, "FEATURE_CHUNK", 2)  # 4 copies: chunk 2 in flight
    rc = cli.main(["train", "--data", str(bench), "--out", str(tmp_path / "run"),
                   *_QUICK_TRAIN])
    assert rc == cli.EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert block_passes and all(block_passes)
    assert not (tmp_path / "run" / "stage2_new_modules.cdpm").exists()


@pytest.mark.parametrize("command", ["align", "train", "ablate"])
def test_cli_reads_the_annotation_file_once(tmp_path, monkeypatch, extract_inputs, command):
    """The index reads annotations.csv once and caches it: ablate's four
    training runs and its alignment scoring share that one read."""
    bench, tensors = extract_inputs
    checkpoint = tmp_path / "net.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    reads = []
    read_text = Path.read_text

    def counted(path, *args, **kwargs):
        if path.name == "annotations.csv":
            reads.append(path)
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    args = _command_args(command, checkpoint, tmp_path / "out", tmp_path / "runs")
    assert cli.main([command, "--data", str(bench), *args]) == cli.EXIT_OK
    assert reads == [bench / "annotations.csv"]


@pytest.mark.parametrize("command", ["align", "train", "ablate"])
def test_cli_missing_annotation_file(tmp_path, capsys, extract_inputs, command):
    """One rule for a missing annotation file: every image trains and is
    scored with uniform division, so `train` runs, while `align` and `ablate`,
    which have nothing to score, fail with one data error naming the file and
    write nothing."""
    bench, tensors = extract_inputs
    copy = tmp_path / "bench"
    shutil.copytree(bench, copy)
    (copy / "annotations.csv").unlink()
    checkpoint = tmp_path / "net.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    out, workdir = tmp_path / "out", tmp_path / "runs"
    rc = cli.main([command, "--data", str(copy),
                   *_command_args(command, checkpoint, out, workdir)])
    err = capsys.readouterr().err
    if command == "train":
        assert rc == cli.EXIT_OK, err
        with open(out / "train_log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["loss_c"]) == float(r["loss_r"]) == 0.0 for r in rows)
        assert (out / "final.cdpm").exists()
        return
    assert rc == cli.EXIT_DATA
    assert err.count("\n") == 1 and err.startswith("data error:"), err
    assert str(copy / "annotations.csv") in err, err
    assert not out.exists()
    assert not (workdir.exists() and list(workdir.rglob("*.cdpm")))


def test_cli_non_utf8_annotation_file_exit_code(tmp_path, capsys, extract_inputs):
    bench, tensors = extract_inputs
    copy = tmp_path / "bench"
    shutil.copytree(bench, copy)
    (copy / "annotations.csv").write_bytes(b"\xff\xfe,0,384\n")
    checkpoint = tmp_path / "net.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    rc = cli.main(["align", "--checkpoint", str(checkpoint), "--data", str(copy),
                   "--out", str(tmp_path / "align.csv")])
    assert rc == cli.EXIT_DATA
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("splits", ["bogus", ",", "query,bogus", "query,query"])
def test_cli_align_bad_splits_is_usage_error(tmp_path, capsys, extract_inputs, splits):
    bench, tensors = extract_inputs
    checkpoint = tmp_path / "net.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    rc = cli.main(["align", "--checkpoint", str(checkpoint), "--data", str(bench),
                   "--splits", splits, "--out", str(tmp_path / "align.csv")])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error: --splits expects"), err
    assert not (tmp_path / "align.csv").exists()


def test_cli_synth_data_refuses_a_non_empty_out(tmp_path, capsys):
    """A second synth-data into a data set's directory, or onto a file, is one
    usage error line and leaves every file there byte-identical."""
    def synth(out, identities):
        return cli.main(["synth-data", "--out", str(out), "--identities", str(identities),
                         "--images-per-id", "2", "--test-identities", "2",
                         "--test-images-per-id", "2"])

    out = tmp_path / "bench"
    assert synth(out, 3) == cli.EXIT_OK
    stray = tmp_path / "stray.txt"
    stray.write_text("not a data set\n")
    capsys.readouterr()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    for target in (out, stray):
        assert synth(target, 2) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("usage error:") and str(target) in err
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    (tmp_path / "empty").mkdir()
    assert synth(tmp_path / "empty", 2) == cli.EXIT_OK


@pytest.mark.parametrize("command", ["extract", "align", "evaluate", "ablate"])
def test_cli_out_makes_its_missing_parent_directories(tmp_path, monkeypatch, extract_inputs,
                                                      command):
    """extract, align, evaluate and ablate write --out under directories that
    do not exist yet, as train makes its --out directory."""
    bench, tensors = extract_inputs
    checkpoint = tmp_path / "net.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(2)
    for name, cam in (("q.bin", 1), ("g.bin", 2)):
        tensorio.write_descriptors(name, {f"{i:04d}_c{cam}_0000": rng.standard_normal(4)
                                          for i in (1, 2)})
    out = tmp_path / "missing" / "deeper" / "out.x"
    data_args = [] if command == "evaluate" else ["--data", str(bench)]
    rc = cli.main([command, *data_args,
                   *_command_args(command, checkpoint, out, tmp_path / "runs")])
    assert rc == cli.EXIT_OK
    assert out.is_file() and out.stat().st_size


@pytest.mark.parametrize("flag,value,message", [
    ("--identities", "0", "need at least one identity"),
    ("--offset-max", "-0.5", "bad offset range (0.0, -0.5)"),
    ("--noise", "nan", "noise level nan outside [0, 1]"),
])
def test_cli_synth_data_bad_argument_is_usage_error(tmp_path, capsys, flag, value,
                                                    message):
    out = tmp_path / "bench"
    rc = cli.main(["synth-data", "--out", str(out), flag, value])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error:") and message in err, err
    assert not out.exists()


def test_cli_internal_error_is_one_line_exit_4(monkeypatch, capsys):
    def broken(args):
        raise ops.ShapeError("conv2d channel mismatch: input 3 vs kernel 4\nsecond line")

    monkeypatch.setitem(cli.COMMANDS, "evaluate", broken)
    rc = cli.main(["evaluate", "--query", "q.bin", "--gallery", "g.bin", "--out", "r.csv"])
    assert rc == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == ("internal error: ShapeError: conv2d channel mismatch: "
                   "input 3 vs kernel 4 second line\n")


@pytest.mark.parametrize("command", ["synth-data", "train", "extract", "align", "ablate",
                                     "evaluate"])
@pytest.mark.parametrize("assignment", [
    "select.threshold=2", "select.threshold=-0.5", "data.profile=other",
    "augment.flip_probability=-0.5", "loss.lambda1=-1",
    "augment.translation_copies=0", "model.parts=25", "model.parts=0",
    "model.feature_dim=0", "model.holistic_dim=0", "model.attention_reduction=0",
    "train.batch_size=0", "train.epoch_scale=0", "train.epoch_scale=-1",
    "train.epoch_scale=inf", "train.epoch_scale=nan",
    "triplet.identities_per_batch=0", "triplet.images_per_identity=0",
    "loss.margin=-1", "loss.margin=inf", "loss.margin=nan",
    "train.momentum=-3", "train.momentum=1.5", "train.momentum=1",
])
def test_cli_out_of_range_config_value_is_usage_error(tmp_path, capsys, extract_inputs,
                                                    assignment, command):
    """Every command checks the config before it reads or writes anything."""
    bench, tensors = extract_inputs
    checkpoint = tmp_path / "net.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    data_args = [] if command in ("synth-data", "evaluate") else ["--data", str(bench)]
    rc = cli.main([command, *data_args,
                   *_command_args(command, checkpoint, tmp_path / "out", tmp_path / "runs"),
                   "--set", assignment])
    assert rc == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error:"), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["net.cdpm"]


def test_non_utf8_config_file_rejected(tmp_path):
    path = tmp_path / "run.conf"
    path.write_bytes(b"train.seed = \xff\n")
    with pytest.raises(ConfigError, match="not UTF-8"):
        load_config(path)


#: bad input kind -> (its flag, how its path is made, exit code, the cause named)
BAD_INPUTS = {
    "config_missing": ("--config", lambda path: None, cli.EXIT_USAGE,
                       "No such file or directory"),
    "config_directory": ("--config", Path.mkdir, cli.EXIT_USAGE, "Is a directory"),
    "config_not_utf8": ("--config", lambda path: path.write_bytes(b"train.seed = \xff\n"),
                        cli.EXIT_USAGE, "not UTF-8"),
    "config_no_equals": ("--config", lambda path: path.write_text("train.seed 5\n"),
                         cli.EXIT_USAGE, "line 1: expected 'section.key = value'"),
    "data_missing": ("--data", lambda path: None, cli.EXIT_DATA, "bad: does not exist"),
    "data_file": ("--data", lambda path: path.write_text("not a data set\n"), cli.EXIT_DATA,
                  "bad: not a directory"),
    "data_empty": ("--data", Path.mkdir, cli.EXIT_DATA, "empty train split"),
}
BAD_INPUT_CASES = [
    (command, kind) for kind, (flag, *_) in BAD_INPUTS.items()
    for command in (["synth-data", "train", "extract", "align", "evaluate", "ablate"]
                    if flag == "--config" else ["train", "extract", "align", "ablate"])
]


@pytest.mark.parametrize("command,kind", BAD_INPUT_CASES)
def test_cli_bad_config_or_data_path(tmp_path, capsys, extract_inputs, command, kind):
    """A --config file that cannot be read or parsed is a usage error in
    every command, and a --data path that holds no data set is a data error
    in every command that reads one: one line naming the cause, written
    before the command makes any file or directory."""
    flag, make, code, cause = BAD_INPUTS[kind]
    bench, tensors = extract_inputs
    checkpoint = tmp_path / "net.cdpm"
    tensorio.save_tensors(checkpoint, tensors)
    bad = tmp_path / "bad"
    make(bad)
    inputs = {} if command in ("synth-data", "evaluate") else {"--data": bench}
    inputs[flag] = bad
    before = sorted(tmp_path.rglob("*"))
    rc = cli.main([command, *(arg for item in inputs.items() for arg in map(str, item)),
                   *_command_args(command, checkpoint, tmp_path / "out", tmp_path / "runs")])
    assert rc == code
    err = capsys.readouterr().err
    prefix = "usage error:" if code == cli.EXIT_USAGE else "data error:"
    assert err.count("\n") == 1 and err.startswith(prefix) and cause in err, err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
