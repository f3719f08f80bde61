"""Run a fixed set of `cdpm` commands and print the sha256 of every file they write.

Usage:
    python tools/hash_set.py OUT_DIR [--checkout PATH]
    python tools/hash_set.py OUT_DIR --check [--checkout PATH]

OUT_DIR must not exist. The commands run with OUT_DIR as their working
directory and relative paths only, so runs in differently named directories
write the same bytes, `config.used` included. `--checkout` names the source
tree whose `src/` is imported (default: the tree holding this script).
Every command runs with one BLAS thread, whatever the caller's environment
sets: OpenBLAS's thread count can change the last bits of a matrix product.

The set: `synth-data` with 8 identities x 4 train images and 4 x 3 test
images at seed 3; `train` at seed 5 with 3 translation copies, batch 12 and
`train.epoch_scale=0.04`, in the default and the `model.mgf=true` config;
for each run the query/gallery/train `extract` dumps, the `align` CSV and
the single- and multi-query `evaluate` reports of its query and gallery
dumps; then `ablate` at the same settings, and `align` on the ablation's
`baseline` checkpoint, whose network has no detection heads (every row has
window 0).

The listing opens with `# <fact> <value>` lines: the host facts that decide
the bits (numpy's version, its BLAS library's name and version, and the
OpenBLAS core type it dispatches to). `tools/hash_set.sha256` is such a
listing, committed: `--check` reruns the set and compares it with that
manifest, printing each file whose hash changed, is missing or is new. It
exits 0 when all match and 1 on a mismatch or a failed command. When the
host facts differ from the manifest's it runs nothing and exits 3: the bits
may differ there without any change to the code, so there is no verdict.
A declared re-baseline rewrites the manifest:

    python tools/hash_set.py /tmp/after > tools/hash_set.sha256

A run takes about a minute on two cores.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).with_name("hash_set.sha256")
EXIT_MISMATCH, EXIT_HOST = 1, 3
TRAIN_SETTINGS = [
    "--seed", "5",
    "--set", "augment.translation_copies=3",
    "--set", "train.batch_size=12",
    "--set", "train.epoch_scale=0.04",
]
RUNS = {"default": [], "mgf": ["--set", "model.mgf=true"]}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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
    cmds.append(["align", "--checkpoint", "ablation/runs/baseline/final.cdpm", "--data", "bench",
                 "--out", "ablation/baseline_align.csv"])
    return cmds


def _openblas_core() -> str:
    """The core type OpenBLAS dispatches to, asked of numpy's bundled library."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for name in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                     "openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(lib)), name, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def host_facts() -> dict[str, str]:
    """The facts of this host that decide the bits (not the core count,
    which the backbone's blocks make irrelevant)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name, "blas_core": _openblas_core()}


class CommandFailed(RuntimeError):
    """A command of the set exited with a nonzero code."""


def run_set(out_dir: Path, checkout: Path) -> dict[str, str]:
    """Run `commands()` in the new directory `out_dir` with `checkout`'s
    sources; the sha256 of every file written, keyed by relative path."""
    out_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(checkout.resolve() / "src"),
               **dict.fromkeys(BLAS_THREAD_VARS, "1"))
    for cmd in commands():
        done = subprocess.run([sys.executable, "-m", "cdpm.cli", *cmd], cwd=out_dir,
                              env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True)
        if done.returncode:
            raise CommandFailed(f"cdpm {' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(p for p in out_dir.rglob("*") if p.is_file())}


def read_manifest(path: Path) -> tuple[dict[str, str], dict[str, str]]:
    """A listing's host facts and its digests keyed by relative path."""
    facts, digests = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" ")
            facts[key] = value
        elif line:
            digest, _, name = line.partition("  ")
            digests[name] = digest
    return facts, digests


def check(manifest: Path, out_dir: Path, checkout: Path) -> int:
    want_facts, want = read_manifest(manifest)
    facts = host_facts()
    if facts != want_facts:
        for key in sorted(facts.keys() | want_facts.keys()):
            if facts.get(key) != want_facts.get(key):
                print(f"host {key}: {facts.get(key)} here, {want_facts.get(key)} in {manifest}")
        print("no verdict: this host's facts differ from the manifest's")
        return EXIT_HOST
    got = run_set(out_dir, checkout)
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    for name in changed:
        state = "missing" if name not in got else "new" if name not in want else "changed"
        print(f"{state}: {name}")
    matched = sum(got.get(name) == digest for name, digest in want.items())
    print(f"{matched} of {len(want)} files match {manifest}")
    return EXIT_MISMATCH if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    parser.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--check", action="store_true",
                        help="compare the run with the manifest instead of printing it")
    args = parser.parse_args(argv)
    try:
        if args.check:
            return check(MANIFEST, args.out_dir, args.checkout)
        digests = run_set(args.out_dir, args.checkout)
    except CommandFailed as e:
        sys.stderr.write(str(e))
        return EXIT_MISMATCH
    print("".join(f"# {key} {value}\n" for key, value in host_facts().items()), end="")
    print("".join(f"{digest}  {name}\n" for name, digest in digests.items()), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
