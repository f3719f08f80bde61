"""Command-line interface.

Subcommands: synth-data, train, extract, align, evaluate, ablate.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure,
4 internal error (a fault in cdpm itself, reported on one line as
`internal error: <type>: <message>`, without a traceback).
Every subcommand accepts --config <path>, --set section.key=value (repeatable),
and --seed <int>.
"""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import data, evaluate, pipeline, tensorio
from .annotations import AnnotationError
from .config import ConfigError, load_config, save_config
from .model import CdpmNetwork
from .training import TrainingDiverged, run_training

log = logging.getLogger("cdpm")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="config file path")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="section.key=value",
        help="override one config value (repeatable)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override train.seed")
    parser.add_argument("--verbose", action="store_true", help="log progress")


def _config_from(args) -> "Config":
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            raise UsageError(f"--set expects section.key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return load_config(args.config, overrides, args.seed)


def build_parser() -> _Parser:
    parser = _Parser(prog="cdpm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth-data", help="generate a synthetic benchmark")
    _common(p)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--identities", type=int, default=100)
    p.add_argument("--images-per-id", type=int, default=20)
    p.add_argument("--test-identities", type=int, default=50)
    p.add_argument("--test-images-per-id", type=int, default=6)
    spec = data.SyntheticSpec
    p.add_argument("--offset-max", type=float, default=spec.offset_range[1],
                   help="largest top offset, fraction of image height")
    p.add_argument("--scale-min", type=float, default=spec.scale_range[0])
    p.add_argument("--scale-max", type=float, default=spec.scale_range[1])
    p.add_argument("--noise", type=float, default=spec.noise_level)

    p = sub.add_parser("train", help="run the full stage schedule")
    _common(p)
    p.add_argument("--data", type=Path, default=None, help="dataset root")
    p.add_argument("--out", type=Path, required=True, help="checkpoint directory")

    p = sub.add_parser("extract", help="dump descriptors for one split")
    _common(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", choices=data.SPLITS, required=True)
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("align", help="score selected windows against ground truth")
    _common(p)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--splits", default="query,gallery",
                   help="comma-separated splits to score")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("evaluate", help="rank queries against a gallery")
    _common(p)
    p.add_argument("--query", type=Path, required=True, help="query descriptor dump")
    p.add_argument("--gallery", type=Path, required=True, help="gallery descriptor dump")
    p.add_argument("--protocol", choices=("single", "multi"), default="single")
    p.add_argument("--out", type=Path, required=True)

    p = sub.add_parser("ablate", help="train and score the four-way ablation grid")
    _common(p)
    p.add_argument("--data", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True, help="result CSV path")
    p.add_argument("--workdir", type=Path, default=None,
                   help="directory for the four training runs")
    return parser


def cmd_synth_data(args) -> int:
    cfg = _config_from(args)
    index = data.generate_benchmark(
        args.out,
        train_identities=args.identities,
        images_per_identity=args.images_per_id,
        test_identities=args.test_identities,
        test_images_per_identity=args.test_images_per_id,
        offset_range=(0.0, args.offset_max),
        scale_range=(args.scale_min, args.scale_max),
        noise_level=args.noise,
        seed=cfg.train.seed,
    )
    counts = {s: len(index.split(s)) for s in data.SPLITS}
    print(f"wrote {args.out}: {counts}, {index.class_count} train classes")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _config_from(args)
    if args.data is not None:
        cfg = replace(cfg, data_root=str(args.data))
    if not cfg.data_root:
        raise UsageError("train needs --data or data.root in the config")
    index = data.load_dataset(cfg.data_root)
    index.annotations  # a bad data set fails here, before --out is made
    args.out.mkdir(parents=True, exist_ok=True)
    save_config(args.out / "config.used", cfg)
    result = run_training(index, cfg.model_config(classes=index.class_count), cfg.train,
                          args.out)
    print(f"final checkpoint: {result.final_checkpoint}")
    print(f"last epoch total loss: {result.log_rows[-1]['total']:.6f}")
    return EXIT_OK


def cmd_extract(args) -> int:
    cfg = _config_from(args)
    net = CdpmNetwork.load(args.checkpoint)
    index = data.load_dataset(args.data)
    descs = pipeline.extract_descriptors(net, index, args.split, cfg.selection)
    tensorio.write_descriptors(args.out, descs)
    dim = next(iter(descs.values())).size
    print(f"wrote {len(descs)} descriptors of dim {dim} to {args.out}")
    return EXIT_OK


def cmd_align(args) -> int:
    cfg = _config_from(args)
    splits = tuple(s.strip() for s in args.splits.split(",") if s.strip())
    if not splits or not set(splits) <= set(data.SPLITS) or len(set(splits)) < len(splits):
        raise UsageError(f"--splits expects a comma-separated subset of "
                         f"{','.join(data.SPLITS)}, each at most once, got {args.splits!r}")
    net = CdpmNetwork.load(args.checkpoint)
    index = data.load_dataset(args.data)
    report = pipeline.alignment_report(net, index, index.annotations, splits, cfg.selection)
    pipeline.write_alignment_csv(args.out, report)
    print(
        f"mean IoU {report.mean_iou:.4f} vs uniform-division {report.uniform_mean_iou:.4f} "
        f"over {len(report.rows)} (image, part) pairs"
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    _config_from(args)  # validates --set/--config even though unused here
    queries = tensorio.read_descriptors(args.query)
    gallery = tensorio.read_descriptors(args.gallery)
    report = evaluate.evaluate_retrieval(queries, gallery, args.protocol)
    evaluate.write_report_csv(args.out, report)
    print(report.text())
    return EXIT_OK


def cmd_ablate(args) -> int:
    cfg = _config_from(args)
    if args.data is not None:
        cfg = replace(cfg, data_root=str(args.data))
    if not cfg.data_root:
        raise UsageError("ablate needs --data or data.root in the config")
    workdir = args.workdir or args.out.parent / "ablation_runs"
    rows = pipeline.run_ablation(cfg, workdir)
    pipeline.write_ablation_csv(args.out, rows)
    for r in rows:
        print(f"{r.name}: rank1 {r.rank1:.4f} mAP {r.mean_ap:.4f} meanIoU {r.mean_iou:.4f}")
    return EXIT_OK


COMMANDS = {
    "synth-data": cmd_synth_data,
    "train": cmd_train,
    "extract": cmd_extract,
    "align": cmd_align,
    "evaluate": cmd_evaluate,
    "ablate": cmd_ablate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    logging.basicConfig(
        level=logging.INFO if (args.verbose or args.command in ("train", "ablate"))
        else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return COMMANDS[args.command](args)
    except (UsageError, ConfigError, data.SpecError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDiverged as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (AnnotationError, data.DataError, evaluate.EvalError, tensorio.FormatError,
            OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except Exception as e:
        message = " ".join(str(e).splitlines())
        print(f"internal error: {type(e).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
