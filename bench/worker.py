"""One workload in its own process; started by run.py, not by hand.

Sets BLAS to one thread before numpy loads, checks the thread count that
OpenBLAS actually uses, runs the workload and writes ``result.json`` into
the run directory.  Exit status 0 when every check passed, 1 otherwise.
"""

import os

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import arcd  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def blas_threads() -> tuple[int, str]:
    """Thread count and build string of the OpenBLAS numpy has loaded."""
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps
                       if "scipy_openblas" in line.rsplit("/", 1)[-1]})
    if not libs:
        raise RuntimeError("numpy has not loaded scipy-openblas")
    lib = ctypes.CDLL(libs[0])
    get = lib.scipy_openblas_get_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    config = lib.scipy_openblas_get_config64_
    config.argtypes, config.restype = [], ctypes.c_char_p
    return get(), config().decode()


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spawn-ns", type=int, required=True,
                   help="time.monotonic_ns() when the parent started us")
    args = p.parse_args(argv)
    own_import_s = (time.monotonic_ns() - args.spawn_ns) * 1e-9

    src = (ROOT / "src").resolve()
    if Path(arcd.__file__).resolve().parent.parent != src:
        print(f"error: imported arcd from {arcd.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    threads, build = blas_threads()
    env = {"git_sha": git_sha(ROOT), "numpy": np.__version__,
           "openblas": build, "blas_threads": threads,
           "nproc": len(os.sched_getaffinity(0)),
           "python": sys.version.split()[0]}
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    if threads != 1:
        print(f"error: OpenBLAS runs {threads} threads, expected 1",
              file=sys.stderr)
        return 2

    tracer = tracing.Tracer().install() if args.trace else None
    try:
        outcome = workloads.run(args.workload, args.seed, args.seconds,
                                args.out, tracer, own_import_s,
                                time_imports=not args.trace)
    finally:
        if tracer is not None:
            tracer.uninstall()

    e2e = workloads.E2E
    if set(outcome.metrics) != set(e2e):
        raise RuntimeError(f"workload reported {sorted(outcome.metrics)}, "
                           f"declared {sorted(e2e)}")
    if tracer is None:
        metrics = {k: {"value": float(v), "unit": e2e[k]}
                   for k, v in outcome.metrics.items()}
    else:
        layers = tracer.per_layer(outcome.iterations, outcome.pairs,
                                  workloads.SETUP_REPEATS)
        declared = tracing.per_layer_names()
        if set(layers) != set(declared):
            raise RuntimeError(f"tracer reported {sorted(layers)}, declared "
                               f"{sorted(declared)}")
        metrics = {k: {"value": float(v), "unit": unit}
                   for k, (v, unit) in layers.items()}
        tracer.write(args.out / "spans.npz")

    for failure in outcome.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {"correct": not outcome.failures,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": metrics}
    record = dict(result, env=env, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  end_to_end={k: float(v) for k, v in outcome.metrics.items()},
                  failures=outcome.failures, **outcome.extra)
    (args.out / "run.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    (args.out / "result.json").write_text(json.dumps(result) + "\n")
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
