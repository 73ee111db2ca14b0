"""Print the OpenBLAS kernel numpy runs and the predict digests that
``TestFullNetwork.PREDICT_SHA256`` pins for it.

GEMM kernels sum in different orders, so ``predict``'s bytes depend on
the kernel.  To record a kernel's digests, run from the repository root::

    PYTHONPATH=src python tests/predict_digest.py

and, for another kernel of the same OpenBLAS build on this host::

    OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python tests/predict_digest.py
"""

import arcd  # noqa: F401  (caps BLAS threads before numpy starts its pool)

import ctypes
import hashlib

import numpy as np

from arcd.network import ChangeDetector
from arcd.trainer import predict

DTYPES = ("float32", "float64")


def blas_core() -> str:
    """The OpenBLAS kernel numpy's BLAS runs, or "unknown" where numpy's
    BLAS is not a scipy-openblas build that reports it."""
    core = getattr(np, "_core", None) or np.core     # numpy 2, numpy 1
    try:
        lib = ctypes.CDLL(core._multiarray_umath.__file__)
        corename = lib.scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def predict_outputs(dtype: str) -> tuple[np.ndarray, np.ndarray]:
    """``predict`` of ChangeDetector(seed=5) at ``dtype`` on a fixed
    1x256^2 pair: the change and uncertainty maps."""
    model = ChangeDetector(seed=5, dtype=np.dtype(dtype))
    img1, img2 = np.random.default_rng(256).uniform(0.0, 1.0,
                                                    (2, 3, 256, 256))
    return predict(model, img1, img2)


def digest(change: np.ndarray, unc: np.ndarray) -> str:
    """sha256 of the change bytes, then the uncertainty bytes."""
    return hashlib.sha256(change.tobytes() + unc.tobytes()).hexdigest()


if __name__ == "__main__":
    print(f'"{blas_core()}": {{')
    for dtype in DTYPES:
        print(f'    "{dtype}": "{digest(*predict_outputs(dtype))}",')
    print("},")
