"""Run the unit suite once per OpenBLAS kernel and print which tests fail.

numpy's OpenBLAS is built for several CPU kernels and picks one at start
up; ``OPENBLAS_CORETYPE`` selects another for one process.  GEMM kernels
sum in different orders, so a test that pins bytes may hold on one
kernel and fail on another.  From the repository root::

    python tests/kernels.py                    # the kernels in KERNELS
    python tests/kernels.py Haswell Prescott   # only these

runs ``pytest -m "not acceptance"`` in a child process per kernel, one
at a time, and prints a JSON table: per requested kernel, the kernel the
child reports through ``predict_digest.blas_core()`` (a kernel the host
cannot run, or one the build maps to another, reports that other), the
number of tests that passed and the ids of those that failed.  The exit
status is 0 whatever fails.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Kernels of OpenBLAS's x86-64 DYNAMIC_ARCH builds: the ones numpy's wheel
# carries tables for, and Zen, which such builds map to one of them.
KERNELS = ("SkylakeX", "Haswell", "Zen", "SandyBridge", "Nehalem",
           "Prescott")
# The pytest child prints the kernel it ran on after the suite.
CHILD = ("import sys, pytest\n"
         "code = pytest.main(sys.argv[1:])\n"
         "import predict_digest\n"
         "print('blas_core:', predict_digest.blas_core())\n"
         "sys.exit(code)\n")


def survey(kernel: str) -> dict:
    """Run the unit suite under ``kernel``; return the reported kernel,
    the pass count and the failing test ids."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"),
                                           str(ROOT / "tests")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, "-m", "not acceptance", "-q", "-rfE",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    core, passed, failed = None, 0, []
    for line in proc.stdout.splitlines():
        line = line.strip("= ")
        if line.startswith("blas_core: "):
            core = line.split(": ", 1)[1]
        elif line.startswith(("FAILED ", "ERROR ")):
            failed.append(line.split(" ", 1)[1].split(" - ", 1)[0])
        elif " passed" in line and line.endswith("s"):
            words = line.replace(",", " ").split()
            passed = int(words[words.index("passed") - 1])
    return {"requested": kernel, "blas_core": core, "passed": passed,
            "failed": failed, "exit_status": proc.returncode}


if __name__ == "__main__":
    print(json.dumps([survey(k) for k in sys.argv[1:] or KERNELS], indent=1))
