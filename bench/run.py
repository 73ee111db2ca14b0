"""arcd benchmark: run one workload and print its result as a JSON line.

Run from the repository root:

    python3 bench/run.py --workload patch-256 --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run on the same inputs.  The workload runs in a child
process of its own (so that its peak RSS is its own) with the arcd
sources of this checkout on its path; its files go to
``.bench_out/<workload>-seed<n>-trace<t>/``.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``.  Exit status
is 0 only when the run completed and every check passed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("patch-256", "scene-1024")
CHILD_TIMEOUT_S = 175
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one arcd benchmark "
                                            "workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / "arcd" / "__init__.py").is_file():
        print(f"error: no arcd sources under {src}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out" / (f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    env = dict(os.environ, PYTHONPATH=str(src),
               **{var: "1" for var in BLAS_VARS})
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out), "--spawn-ns", str(time.monotonic_ns())]
    # The worker leads a process group of its own, so that a timeout also
    # ends the interpreters it starts to time imports.
    child = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        print(f"error: {args.workload} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        if child.returncode is None:    # interrupted while waiting
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    result = out / "result.json"
    if not result.is_file():
        print(f"error: the {args.workload} worker exited with {code} "
              f"and no result", file=sys.stderr)
        return code or 1
    print(result.read_text().strip(), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
