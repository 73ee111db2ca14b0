"""Bi-temporal change detection with pixel-wise uncertainty.

Importing the package caps the BLAS threads (ARCD_THREADS, default 1)
before numpy spins up its pools, keeping runs reproducible.  It warns
when numpy came first, since the cap cannot hold then.  The cap is for
BLAS only: a forward op that passes the gate of ``arcd.autodiff.ops``
(convolutions, upsampling and the elementwise ops of a 1024x1024
inference) shares its blocks with a helper thread wherever the process
may run on two CPUs; no adjoint leaves the calling thread.  No sum or
contraction is cut, so the output bits are the same.
"""

import os as _os
import sys as _sys

_threads = _os.environ.get("ARCD_THREADS", "1")
_unset = [_var for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS") if _var not in _os.environ]
for _var in _unset:
    _os.environ[_var] = _threads
if _unset and "numpy" in _sys.modules:
    import warnings as _warnings
    _warnings.warn(f"numpy was imported before arcd, so its BLAS pool "
                   f"cannot cap {', '.join(_unset)} at {_threads}; import "
                   f"arcd first or set them in the environment",
                   RuntimeWarning, stacklevel=2)

__version__ = "0.1.0"
