"""Cap numeric worker threads for the whole test session.

Pytest loads this file before collecting any test module, so the caps
land before anything imports numpy and starts its BLAS pool; the same
caps in ``arcd/__init__`` come too late once ``bench/tests`` (collected
first) has imported numpy.  ARCD_THREADS sets the count (default 1).
"""

import os

_threads = os.environ.get("ARCD_THREADS", "1")
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, _threads)
