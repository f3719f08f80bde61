"""Run a fixed set of `cdpm` commands and print the sha256 of every file they write.

Usage:
    python tools/hash_set.py OUT_DIR [--checkout PATH]

OUT_DIR must not exist. The commands run with OUT_DIR as their working
directory and relative paths only, so runs in differently named directories
write the same bytes, `config.used` included. `--checkout` names the source
tree whose `src/` is imported (default: the tree holding this script).

The set: `synth-data` with 8 identities x 4 train images and 4 x 3 test
images at seed 3; `train` at seed 5 with 3 translation copies, batch 12 and
`train.epoch_scale=0.04`, in the default and the `model.mgf=true` config;
for each run the query/gallery/train `extract` dumps, the `align` CSV and
the single- and multi-query `evaluate` reports of its query and gallery
dumps; then `ablate` at the same settings. To check that a change keeps every
output bit, run the script once per checkout and diff the two listings:

    python tools/hash_set.py /tmp/before --checkout ../parent > before.txt
    python tools/hash_set.py /tmp/after > after.txt
    diff before.txt after.txt

A run takes about a minute on two cores.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

TRAIN_SETTINGS = [
    "--seed", "5",
    "--set", "augment.translation_copies=3",
    "--set", "train.batch_size=12",
    "--set", "train.epoch_scale=0.04",
]
RUNS = {"default": [], "mgf": ["--set", "model.mgf=true"]}


def commands() -> list[list[str]]:
    cmds = [["synth-data", "--out", "bench", "--identities", "8", "--images-per-id", "4",
             "--test-identities", "4", "--test-images-per-id", "3", "--seed", "3"]]
    for name, extra in RUNS.items():
        cmds.append(["train", "--data", "bench", "--out", name, *TRAIN_SETTINGS, *extra])
        checkpoint = ["--checkpoint", f"{name}/final.cdpm", "--data", "bench"]
        for split in ("query", "gallery", "train"):
            cmds.append(["extract", *checkpoint, "--split", split,
                         "--out", f"{name}/{split}.desc"])
        cmds.append(["align", *checkpoint, "--out", f"{name}/align.csv"])
        for protocol in ("single", "multi"):
            cmds.append(["evaluate", "--query", f"{name}/query.desc",
                         "--gallery", f"{name}/gallery.desc", "--protocol", protocol,
                         "--out", f"{name}/evaluate_{protocol}.csv"])
    cmds.append(["ablate", "--data", "bench", "--out", "ablation/ablation.csv",
                 "--workdir", "ablation/runs", *TRAIN_SETTINGS])
    return cmds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    args = parser.parse_args(argv)
    args.out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(args.checkout.resolve() / "src"))
    for cmd in commands():
        done = subprocess.run([sys.executable, "-m", "cdpm.cli", *cmd], cwd=args.out_dir,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if done.returncode:
            sys.stderr.write(f"cdpm {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
            return 1
    for path in sorted(p for p in args.out_dir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        print(f"{digest}  {path.relative_to(args.out_dir).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
