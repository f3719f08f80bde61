"""cdpm benchmark: one workload, one closed loop, one client.

Usage, from the repository root:

    python3 perfbench/run.py --workload train|extract|retrieval \\
        --seed N --seconds S --trace 0|1

The benchmark builds the workload's inputs from the seed (set up several
times; `setup_s` is the median), then runs one operation after another
(at least one) while the next is expected to end within S seconds,
checking each operation's outputs. With `--trace 0` it reports the end-to-end metrics listed in BENCHMARK.json; with
`--trace 1` it wraps cdpm's public functions and methods (see `spans.py`)
and reports the per-layer metrics instead, as amounts per operation, and
the tracing overhead against the untraced runs saved so far. It
prints every metric with its unit, host facts and quality figures, writes
the same to `.perfbench/results/`, and prints as its last line one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The gated rates are `rate1_per_s` and `rate2_per_s`; each workload maps
them to two of its named rates (see `workloads.WORKLOADS` and layer_map.json).
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """One BLAS thread; must run before numpy loads.

    On a shared 2-vCPU VM a second thread bought little (a train run took
    5-10% longer on one thread) and made every step wait on whichever core
    other load delayed.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_cdpm():
    """Import cdpm from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "cdpm" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cdpm sources under {src}")
    sys.path.insert(0, str(src))
    import cdpm

    if Path(cdpm.__file__).resolve().parent != (src / "cdpm").resolve():
        sys.exit(f"perfbench: imported cdpm from {cdpm.__file__}, not {src}")
    return cdpm


def blas_threads(np) -> int | None:
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_thread_env": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("train", "extract", "retrieval"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    limit_blas_threads()
    cdpm = import_cdpm()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import numpy as np

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    host = host_facts(np)
    print("host " + json.dumps(host), flush=True)

    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times = []
        for k in range(1 if args.trace else SETUP_REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            t = time.perf_counter()
            state = workload.setup(work / "setup", args.seed)
            setup_times.append(time.perf_counter() - t)
        tracer = spans.Tracer(cdpm, spans.TRACE_TARGETS if args.trace else spans.STEP_TARGETS)
        ops = []
        start = time.perf_counter()
        while True:
            ops.append(workload.run(state, work, tracer))
            if len(ops) == 1:
                # peak through set-up and one operation; later operations only
                # add allocator noise, and their count varies with speed
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # stop before an operation that would end past --seconds, so a
            # run's length stays near --seconds whatever one operation takes
            elapsed = time.perf_counter() - start
            if elapsed * (len(ops) + 1) / len(ops) > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for op in ops if op.failures)
    named = {r.name: (r.value(ops), r.unit) for r in workload.rates}
    e2e = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "op_s": (statistics.median(op.wall_s for op in ops), "s"),
        **{f"rate{i}_per_s": (named[n][0], "1/s") for i, n in enumerate(workload.gated, 1)},
    }
    layers = {}
    if args.trace:
        layers = spans.layer_metrics(tracer.stats(), len(ops))
        layers["trace.op_s"] = e2e["op_s"]
        layers["trace.spans"] = (len(tracer.spans) / len(ops), "count")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = layers if args.trace else e2e
    mismatched = [m["name"] for m in wanted
                  if measured.get(m["name"], (None, None))[1] != m["unit"]]
    if mismatched:
        sys.exit(f"perfbench: no value in BENCHMARK.json's unit for {mismatched}")

    quality = {k: statistics.median(op.quality[k] for op in ops) for k in ops[0].quality}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(ops)} ops in {time.perf_counter() - start:.1f} s, "
          f"{len(setup_times)} setups")
    for name, (value, unit) in {**e2e, **named}.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {'error_rate':36s} {failed / len(ops):14.6g} failed/attempted")
    for name, (value, unit) in layers.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print("quality " + json.dumps(quality))
    for op in ops:
        for failure in op.failures[:5]:
            print(f"FAILED: {failure}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "ops": len(ops), "failed": failed,
        "setup_samples_s": setup_times, "op_wall_samples_s": [op.wall_s for op in ops],
        "rate_samples": [op.samples for op in ops],
        "end_to_end": e2e, "named": named, "per_layer": layers, "quality": quality,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    compared = ("op_s", "rate1_per_s", "rate2_per_s")
    untraced = [json.loads(f.read_text())["end_to_end"]
                for f in results.glob(f"{args.workload}-seed*-trace0.json")]
    untraced = [u for u in untraced if all(k in u for k in compared)]
    if args.trace and untraced:
        # against the median of every untraced run on disk: one pair differs
        # by the host's run-to-run drift, which exceeds the tracing cost
        overhead = {k: e2e[k][0] / statistics.median(u[k][0] for u in untraced) - 1.0
                    for k in compared}
        record["trace_overhead"] = overhead
        print(f"trace_overhead (traced / median of {len(untraced)} untraced runs - 1) "
              + json.dumps(overhead))
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
